package covert

import "testing"

// CTest runs once per candidate group in every verification sweep, and each
// test spins Rounds contention rounds per channel and repetition. The vote
// and majority scratch is reused across calls, so a
// steady-state CTest allocates only its returned result slice, whatever the
// channel count.
func TestCTestAllocs(t *testing.T) {
	for _, name := range []string{"rng", CombinedChannelName} {
		pl, insts := testWorld(t, 5, 30)
		tester, err := RunnerFor(name, pl.Scheduler(), 0)
		if err != nil {
			t.Fatal(err)
		}
		group := insts[:3]
		if _, err := tester.CTest(group, 2); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tester.CTest(group, 2); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s CTest allocates %.1f per run, budget 1 (the result slice)", name, allocs)
		}
	}
}

// PairTest is the pairwise fallback coloc runs on mixed fingerprint groups,
// thousands of times per Gen 2 verification. It reads its verdicts off the
// tester's scratch, so a steady-state call allocates nothing.
func TestPairTestAllocs(t *testing.T) {
	for _, name := range []string{"rng", CombinedChannelName} {
		pl, insts := testWorld(t, 5, 30)
		tester, err := RunnerFor(name, pl.Scheduler(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tester.PairTest(insts[0], insts[1]); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tester.PairTest(insts[0], insts[1]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s PairTest allocates %.1f per run, budget 0", name, allocs)
		}
	}
}
