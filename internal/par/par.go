// Package par is the one bounded worker pool: experiment trials, fleet shard
// rounds and fleet verification all fan out through For. Jobs are addressed
// by index and write their results into index-owned slots, so a caller's
// output does not depend on the worker count.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls fn(i) for every i in [0, n) on at most workers goroutines and
// returns the error of the lowest index that failed, the one a sequential
// run would hit first. workers ≤ 0 or above n means one goroutine per index.
// With one worker For runs in index order on the calling goroutine and stops
// at the first error; with more, every index runs.
func For(n, workers int, fn func(i int) error) error {
	if workers <= 0 || workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
