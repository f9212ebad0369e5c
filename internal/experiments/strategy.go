package experiments

import (
	"eaao/internal/core/attack"
	"eaao/internal/report"
)

// runStrategyAblation reruns the §5.2 campaign under every built-in launch
// strategy in an otherwise identical world, reporting coverage next to what
// the campaign ledger says each strategy paid for it: launch waves, billable
// vCPU-seconds and dollars, and the covert-channel verification budget. It is
// the attack-side twin of the placement-policy ablation: there the platform
// varies under a fixed attack, here the attack varies under a fixed platform.
func runStrategyAblation(ctx Context) (*Result, error) {
	d, _ := ByID("strategyablation")
	res := newResult(d)
	n := 150
	if !ctx.Quick {
		n = 400
	}

	strategies := attack.Strategies()
	// All rows share one world seed so the comparison is controlled: the
	// launch strategy is the only difference (the trial sub-seed is
	// deliberately unused).
	rows, err := runTrials(ctx, len(strategies), func(t Trial) (cell, error) {
		return runCell(forkPlatform(ctx.Seed+31, ablationProfile()).MustRegion("ablation"),
			ablationConfig(n, 6), strategies[t.Index])
	})
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("Launch-strategy ablation: coverage vs cost per strategy",
		"strategy", "waves", "instances", "apparent hosts", "victim coverage", "USD", "CTests")
	for i, s := range strategies {
		r := rows[i]
		name := s.Name()
		tbl.AddRow(name, r.stats.Waves, r.stats.InstancesLaunched, r.stats.ApparentHosts,
			r.coverage(), r.stats.USD, r.stats.CTests)
		res.Metrics["coverage_"+name] = r.coverage()
		res.Metrics["usd_"+name] = r.stats.USD
		res.Metrics["waves_"+name] = float64(r.stats.Waves)
		res.Metrics["footprint_"+name] = float64(r.stats.ApparentHosts)
		res.Metrics["ctests_"+name] = float64(r.stats.CTests)
	}
	res.Tables = append(res.Tables, tbl)

	res.note("same world seed per row; the launch strategy is the only variable")
	res.note("naive pays the least but reaches only accidental base-pool overlap; optimized pays for every priming round; adaptive stops paying once a round's marginal apparent-host yield drops below %.0f%% — the helper-unlock curve saturates, so the skipped rounds mostly re-walk known hosts", 100*attack.DefaultAdaptiveMinYield)
	return res, nil
}
