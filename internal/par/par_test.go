package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestForRunsEveryIndexOnce covers the worker counts the trial engine never
// passes (≤ 0, above n) and the empty range; the lowest-index error and the
// one-worker early stop are pinned through experiments.runTrials.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		hits := make([]int32, 37)
		if err := For(len(hits), workers, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	if err := For(0, 4, func(int) error { return errors.New("ran") }); err != nil {
		t.Fatalf("empty range: %v", err)
	}
}
