package experiments

import "testing"

// TestScaleKernelAllocsPerEvent pins the event kernel's steady-state
// allocation budget on the scale experiment's fixed world, quiet and under
// background traffic. It reads runtime_allocs_per_instance: the run's
// allocations over the tenant instances created, a denominator the kernel's
// own event count cannot move (parked autoscale ticks cut the events, not
// the work). The ceilings sit 25% above the measured 0.48 (quiet) and 37.4
// (loaded: the bystanders' instances and re-draws allocate too, but only
// the tenants' instances are counted), so one extra heap allocation per
// created instance fails here instead of surfacing in a profile later.
//
// runtime_allocs_per_instance counts process-wide mallocs, so this test
// must not call t.Parallel: a concurrently running test would inflate the
// count.
func TestScaleKernelAllocsPerEvent(t *testing.T) {
	for _, tc := range []struct {
		name   string
		load   float64
		budget float64
	}{
		{"quiet", 0, 0.60},
		{"loaded", 0.4, 46.7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run("scale", Context{Seed: 42, Quick: true, Load: tc.load})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Metrics["runtime_allocs_per_instance"]
			t.Logf("%.4f allocations per instance created", got)
			if got > tc.budget {
				t.Errorf("scale kernel allocates %.4f per instance created, budget %.2f", got, tc.budget)
			}
		})
	}
}
