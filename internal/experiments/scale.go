package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"eaao/internal/faas"
	"eaao/internal/report"
)

// The scale experiment is the event kernel's stress artifact: one oversized
// region, a hundred-plus tenants autoscaling through demand phases, and a
// live-instance peak in the 10⁵ range — two orders of magnitude past the
// paper-scale worlds every other experiment builds. Under an hourly full
// sweep this world would cost O(fleet) per simulated hour no matter what
// happens; under the kernel, cost tracks the number of lifecycle
// transitions that actually occur, and the lazy fleet never materializes
// hosts no instance ever touches.
//
// The deterministic outputs (instances created, peak live, preemptions,
// events executed, hosts materialized) are digest-stable per seed; the
// throughput numbers (events/sec, allocs/event) are wall-clock facts and
// carry the runtime_ prefix so digest consumers drop them (see golden_test).

// scaleProfile is the self-contained region of the experiment. Like
// faultsweep, scale ignores ctx.Policy and ctx.Faults — its point is the
// default orchestrator under load.
func (c Context) scaleProfile() faas.RegionProfile {
	p := faas.USEast1Profile()
	p.Name = "scale-region"
	switch {
	case c.Big:
		p.NumHosts = 80000
		p.PlacementGroups = 80
	case c.Quick:
		p.NumHosts = 4000
		p.PlacementGroups = 8
	default:
		p.NumHosts = 40000
		p.PlacementGroups = 40
	}
	// Roomy per-service quota: each tenant's demand phases stay well below it.
	p.MaxInstancesPerService = 2000
	// Preemption competes with the default 2%/h churn so both kernel branches
	// fire at scale.
	p.Faults.PreemptionRatePerHour = 0.01
	// -load layers background-tenant traffic on top of the workload: the
	// kernel has to absorb the bystander churn (bursts, diurnal redraws,
	// congestion) alongside the tenants' own demand phases.
	if c.Load > 0 {
		p.Traffic = faas.DefaultTrafficModel(p.NumHosts, c.Load)
	}
	return p
}

// scaleWorkload returns the tenant count and per-tenant demand phases.
func (c Context) scaleWorkload() (tenants int, phases []int, phaseDur time.Duration) {
	if c.Big {
		// Headroom configuration (-big): 640 tenants stepping through the
		// full-scale phase shape creates 640×(800+300+400) = 960k instances
		// from demand steps alone; churn and preemption replacements over
		// the 6 simulated hours push the total past one million. Peak live
		// is 640×1100 = 704k instances on the 80k-host region.
		return 640, []int{800, 1100, 300, 700}, 90 * time.Minute
	}
	if c.Quick {
		return 12, []int{150, 220, 60, 140}, 45 * time.Minute
	}
	// Peak: 128 tenants × 1100 concurrent = 140,800 live instances.
	return 128, []int{800, 1100, 300, 700}, 90 * time.Minute
}

func runScale(ctx Context) (*Result, error) {
	d, _ := ByID("scale")
	res := newResult(d)
	prof := ctx.scaleProfile()
	tenants, phases, phaseDur := ctx.scaleWorkload()

	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()

	pl := faas.MustPlatform(ctx.Seed, prof)
	dc := pl.MustRegion(prof.Name)
	accts := make([]*faas.Account, tenants)
	svcs := make([]*faas.Service, tenants)
	for i := range svcs {
		accts[i] = dc.Account(fmt.Sprintf("tenant-%03d", i))
		// MaxConcurrency 1 makes demand equal the instance target, so the
		// phase numbers below are per-tenant fleet sizes.
		svcs[i] = accts[i].DeployService("app", faas.ServiceConfig{MaxConcurrency: 1})
	}

	table := report.NewTable("Demand phases (all tenants step together)",
		"phase", "demand/tenant", "live instances", "created so far", "events so far", "hosts touched")
	live := func() int {
		n := 0
		for _, svc := range svcs {
			n += svc.ActiveCount() + svc.IdleCount()
		}
		return n
	}
	created := func() int {
		n := 0
		for _, a := range accts {
			n += a.Bill().Instances
		}
		return n
	}
	peak := 0
	for pi, demand := range phases {
		for _, svc := range svcs {
			err := svc.SetDemand(demand)
			// On a loaded region the congestion plane can shed a scale-up
			// like any real control plane; retry with backoff. A quiet
			// region never rejects, so the loop is inert for the recorded
			// digests.
			for tries := 0; err != nil && errors.Is(err, faas.ErrLaunchFault) && tries < 10; tries++ {
				pl.Scheduler().Advance(15 * time.Second)
				err = svc.SetDemand(demand)
			}
			if err != nil {
				return nil, err
			}
		}
		pl.Scheduler().Advance(phaseDur)
		l := live()
		if l > peak {
			peak = l
		}
		table.AddRow(fmt.Sprintf("phase-%d", pi+1), demand, l, created(),
			pl.Scheduler().Executed(), dc.MaterializedHosts())
	}

	wall := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	events := pl.Scheduler().Executed()
	made := created()

	res.Tables = append(res.Tables, table)
	res.Metrics["instances_created"] = float64(made)
	res.Metrics["peak_live_instances"] = float64(peak)
	res.Metrics["preemptions"] = float64(dc.FaultCounters().Preemptions)
	res.Metrics["events_executed"] = float64(events)
	res.Metrics["hosts_materialized"] = float64(dc.MaterializedHosts())
	res.Metrics["hosts_total"] = float64(dc.TrueHostCount())
	res.Metrics["sim_hours"] = (time.Duration(len(phases)) * phaseDur).Hours()
	// The runtime rates divide by the tenant instances created, not by the
	// kernel's events: parked autoscale ticks cut the events, not the work.
	res.Metrics["runtime_instances_per_sec"] = float64(made) / wall.Seconds()
	res.Metrics["runtime_allocs_per_instance"] = float64(m1.Mallocs-m0.Mallocs) / float64(made)
	res.note("%d tenants over %d demand phases peaked at %d live instances on %d of %d hosts (%.0f%% of the fleet never materialized)",
		tenants, len(phases), peak, dc.MaterializedHosts(), dc.TrueHostCount(),
		100*(1-float64(dc.MaterializedHosts())/float64(dc.TrueHostCount())))
	// Wall-clock facts live only in the runtime_ metrics above: Result notes
	// and tables are part of the determinism digest.
	res.note("%d scheduler events over %.0f simulated hours (lifecycle kernel: cost follows transitions, not fleet size)",
		events, (time.Duration(len(phases)) * phaseDur).Hours())
	return res, nil
}
