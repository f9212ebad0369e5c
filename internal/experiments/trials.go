package experiments

import "eaao/internal/par"

// This file is the deterministic trial-execution engine. Experiments express
// each independent unit of work — one (repetition × sweep point), building
// its own simulated world — as a closure; the engine fans the closures out
// over a bounded worker pool and merges results by job index, so the output
// is byte-identical to a strictly sequential run regardless of the worker
// count. The pool is internal/par, the same one fleet campaigns step their
// shards on. The simulator itself stays single-threaded: parallelism exists
// only *between* worlds, never inside one.

// Trial identifies one unit of work in a trial set.
type Trial struct {
	// Index is the job's position in the set; results are merged in Index
	// order.
	Index int
	// Seed is a statistically independent sub-seed derived from the root
	// seed and Index via splitmix. Jobs that need a fresh world per trial
	// build it from this seed; jobs that sweep a parameter over a fixed
	// world (controlled comparisons) may ignore it and seed explicitly.
	Seed uint64
}

// splitmix derives the i-th sub-seed from a root seed using the SplitMix64
// finalizer. Consecutive indices land on Weyl-sequence increments of the
// root, so sub-seeds are statistically independent of each other and of the
// root while remaining a pure function of (root, i).
func splitmix(root uint64, i int) uint64 {
	z := root + (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// runTrials executes fn for every index in [0, n) on at most ctx.jobs()
// workers and returns the results ordered by index. Each invocation receives
// the trial's index and sub-seed and must be self-contained (build its own
// platform, share no mutable state); under that contract the merged result
// is identical for any worker count. If any trial fails, the error of the
// lowest-indexed failing trial is returned — the same error a sequential run
// would surface first.
func runTrials[T any](ctx Context, n int, fn func(t Trial) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	if err := par.For(n, ctx.jobs(), func(i int) error {
		var err error
		out[i], err = fn(Trial{Index: i, Seed: splitmix(ctx.Seed, i)})
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Outcome pairs one experiment's result with its error.
type Outcome struct {
	ID  string
	Res *Result
	Err error
}

// RunAll executes the named experiments concurrently on the bounded trial
// pool and returns their outcomes in input order. The ctx.jobs() workers are
// split: each experiment runs its own trials on max(1, jobs/len(ids)), so
// one experiment alone keeps its trial parallelism and the two levels do not
// multiply. Failures are reported per experiment, never short-circuited.
func RunAll(ids []string, ctx Context) []Outcome {
	inner := ctx
	inner.Jobs = max(1, ctx.jobs()/max(1, len(ids)))
	out, _ := runTrials(ctx, len(ids), func(t Trial) (Outcome, error) {
		res, err := Run(ids[t.Index], inner)
		return Outcome{ID: ids[t.Index], Res: res, Err: err}, nil
	})
	return out
}
