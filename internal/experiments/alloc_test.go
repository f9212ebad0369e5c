package experiments

import "testing"

// TestScaleKernelAllocsPerEvent pins the event kernel's steady-state
// allocation budget on the scale experiment's fixed world, quiet and under
// background traffic. The ceilings sit 25% above the measured 0.190 (quiet)
// and 0.0741 (loaded), so one extra heap allocation per kernel event fails
// here instead of surfacing in a profile later.
//
// runtime_allocs_per_event counts process-wide mallocs, so this test must not
// call t.Parallel: a concurrently running test would inflate the count.
func TestScaleKernelAllocsPerEvent(t *testing.T) {
	for _, tc := range []struct {
		name   string
		load   float64
		budget float64
	}{
		{"quiet", 0, 0.238},
		{"loaded", 0.4, 0.093},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run("scale", Context{Seed: 42, Quick: true, Load: tc.load})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Metrics["runtime_allocs_per_event"]; got > tc.budget {
				t.Errorf("scale kernel allocates %.4f per event, budget %.3f", got, tc.budget)
			}
		})
	}
}
