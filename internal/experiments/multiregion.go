package experiments

import (
	"fmt"

	"eaao/internal/core/attack"
	"eaao/internal/faas"
	"eaao/internal/report"
	"eaao/internal/sandbox"
)

// runMultiRegion evaluates the fleet campaign of §5.2 run "everywhere at
// once": one attacker account sharded across R region worlds, with the
// cross-region budget planner deciding at every round barrier which regions
// keep launching. The sweep crosses the fleet size (how many of the study's
// regions are attacked) with the budget-split policy (static-even,
// proportional, adaptive), holding the world seed, the launch strategy, and
// the per-region victim deployment fixed — so within a region count the
// planner is the only variable, and within a planner the region count is.
//
// The headline comparison is fleet-wide cost per covered victim: static-even
// pays R × Launches rounds no matter what each region returns, while the
// adaptive planner drains budget out of regions whose marginal apparent-host
// yield has saturated and (where the budget still helps) re-funds the ones
// still growing.
func runMultiRegion(ctx Context) (*Result, error) {
	d, _ := ByID("multiregion")
	res := newResult(d)

	regionCounts := []int{1, 2, 3}
	if ctx.Quick {
		regionCounts = []int{1, 3}
	}
	planners := attack.Planners()
	attacker, victimAccts := accounts()

	type cell struct {
		stats attack.FleetStats
		cov   attack.Coverage
	}
	type job struct {
		planner attack.Planner
		regions int
	}
	var jobs []job
	for _, p := range planners {
		for _, r := range regionCounts {
			jobs = append(jobs, job{planner: p, regions: r})
		}
	}

	// Every cell builds its fleet from the same world seed: cells of equal
	// region count attack byte-identical worlds, so outcome differences are
	// attributable to the planner alone (the trial sub-seed is deliberately
	// unused).
	cells, err := runTrials(ctx, len(jobs), func(t Trial) (cell, error) {
		jb := jobs[t.Index]
		profs := ctx.Profiles()[:jb.regions]
		fleet, err := forkFleet(ctx.Seed, profs...)
		if err != nil {
			return cell{}, err
		}
		fc, err := attack.NewFleetCampaign(fleet, attacker, ctx.attackCfg(),
			sandbox.Gen1, attack.OptimizedStrategy{}, jb.planner)
		if err != nil {
			return cell{}, err
		}
		// Trial jobs parallelize across cells; the shards inside one cell run
		// sequentially so total workers stay bounded by ctx.jobs().
		fc.SetJobs(1)
		if err := fc.Launch(); err != nil {
			return cell{}, err
		}
		victims := make(map[faas.Region][]*faas.Instance, fleet.Size())
		for _, dc := range fleet.Shards() {
			_, vic, err := coldVictim(dc, victimAccts[0], "victim",
				faas.ServiceConfig{}, ctx.defaultVictims(), 3)
			if err != nil {
				return cell{}, err
			}
			victims[dc.Region()] = vic
		}
		vers, err := fc.Verify(victims)
		if err != nil {
			return cell{}, err
		}
		covs := make([]attack.Coverage, len(vers))
		for i, v := range vers {
			covs[i] = v.Coverage
		}
		return cell{stats: fc.Stats(), cov: attack.MergeCoverages(covs...)}, nil
	})
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("Multi-region fleet campaigns: budget planner × region count",
		"planner", "regions", "rounds", "apparent hosts", "victims covered", "coverage", "USD", "USD/victim")
	fig := &report.Figure{
		ID:     "multiregion",
		Title:  "Fleet cost per covered victim vs region count, per budget planner",
		XLabel: "regions attacked",
		YLabel: "USD per covered victim",
	}
	for pi, p := range planners {
		xs := make([]float64, 0, len(regionCounts))
		ys := make([]float64, 0, len(regionCounts))
		for ri, r := range regionCounts {
			c := cells[pi*len(regionCounts)+ri]
			tot := c.stats.Totals()
			tbl.AddRow(p.Name(), r, fmt.Sprintf("%d/%d", c.stats.RoundsUsed, c.stats.Budget),
				tot.ApparentHosts, fmt.Sprintf("%d/%d", c.cov.VictimCovered, c.cov.VictimTotal),
				c.cov.Fraction(), tot.USD, c.stats.CostPerVictim())
			key := fmt.Sprintf("%s_r%d", p.Name(), r)
			res.Metrics["coverage_"+key] = c.cov.Fraction()
			res.Metrics["usd_"+key] = tot.USD
			res.Metrics["cpv_"+key] = c.stats.CostPerVictim()
			res.Metrics["rounds_"+key] = float64(c.stats.RoundsUsed)
			res.Metrics["footprint_"+key] = float64(tot.ApparentHosts)
			xs = append(xs, float64(r))
			ys = append(ys, c.stats.CostPerVictim())
		}
		fig.AddSeries(p.Name(), xs, ys)
	}
	res.Figures = append(res.Figures, fig)
	res.Tables = append(res.Tables, tbl)

	res.note("same world seed per cell; within a region count the budget planner is the only variable")
	res.note("static-even spends its full R×Launches round budget; adaptive releases a region's budget once a round grows its footprint by under %.0f%% — at full scale that undercuts static-even on cost per covered victim", 100*attack.DefaultAdaptiveMinYield)
	return res, nil
}
