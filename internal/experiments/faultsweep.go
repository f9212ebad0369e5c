package experiments

import (
	"fmt"

	"eaao/internal/core/attack"
	"eaao/internal/faas"
	"eaao/internal/report"
)

// faultVariant is one curve of the fault sweep: a launch strategy plus a
// hardening level.
type faultVariant struct {
	name     string
	strategy attack.LaunchStrategy
	hardened bool
}

// faultVariants returns the sweep's curves: every built-in strategy with the
// full fault-recovery budget, plus the optimized strategy with every budget
// zeroed — the before/after pair the hardening is judged by.
func faultVariants() []faultVariant {
	return []faultVariant{
		{name: "naive", strategy: attack.NaiveStrategy{}, hardened: true},
		{name: "optimized", strategy: attack.OptimizedStrategy{}, hardened: true},
		{name: "adaptive", strategy: attack.AdaptiveStrategy{}, hardened: true},
		{name: "optimized-raw", strategy: attack.OptimizedStrategy{}, hardened: false},
	}
}

// faultRecovery is the attack package's fault-recovery preset, which the
// hardened campaign cells of faultsweep, channelablation and noisesweep run
// with; their notes read the budgets from it.
var faultRecovery = attack.Config{}.WithFaultRecovery()

// faultLevels is the injected uniform fault-level sweep. Level 0.05 is the
// acceptance point: 5% launch faults, 2% channel misfire, 2.5% probe faults
// (see faas.UniformFaultPlan).
func (c Context) faultLevels() []float64 {
	if c.Quick {
		return []float64{0, 0.05}
	}
	return []float64{0, 0.02, 0.05, 0.10, 0.20}
}

// runFaultSweep measures victim coverage and attack cost as a function of
// the injected fault level, for each launch strategy with the fault-recovery
// budgets on, and for the optimized strategy with them off. A campaign that
// dies to an unrecovered fault scores zero coverage — the run is lost, which
// is exactly what an unhardened pipeline buys on a flaky cloud — while the
// hardened curves show what the recovery spend (retries, re-votes, backoff
// dollars) bought back.
func runFaultSweep(ctx Context) (*Result, error) {
	d, _ := ByID("faultsweep")
	res := newResult(d)
	n := 150
	if !ctx.Quick {
		n = 400
	}
	levels := ctx.faultLevels()
	variants := faultVariants()

	type unit struct {
		level   float64
		variant faultVariant
	}
	var units []unit
	for _, level := range levels {
		for _, v := range variants {
			units = append(units, unit{level, v})
		}
	}

	// All units share one world seed: like the strategy ablation, the fault
	// level and the hardening are the only variables (the trial sub-seed is
	// deliberately unused).
	rows, err := runTrials(ctx, len(units), func(t Trial) (cell, error) {
		u := units[t.Index]
		prof := ablationProfile()
		prof.Faults = faas.UniformFaultPlan(u.level)
		cfg := ablationConfig(n, 6)
		if u.variant.hardened {
			cfg = cfg.WithFaultRecovery()
		}
		return runCell(forkPlatform(ctx.Seed+31, prof).MustRegion("ablation"), cfg, u.variant.strategy)
	})
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("Fault sweep: coverage and cost vs injected fault level",
		"fault level", "variant", "coverage", "USD", "launch retries", "re-votes",
		"probe retries+skips", "fault USD")
	fig := &report.Figure{
		ID:     "faultsweep",
		Title:  "Victim coverage vs injected fault level",
		XLabel: "uniform fault level",
		YLabel: "victim coverage",
	}
	zeroCov := make(map[string]float64)
	for i, u := range units {
		p := rows[i]
		cov := p.coverage()
		status := ""
		if p.died {
			status = " (died)"
		}
		if u.level == 0 {
			zeroCov[u.variant.name] = cov
		}
		tbl.AddRow(fmt.Sprintf("%.0f%%%s", 100*u.level, status), u.variant.name, cov,
			p.stats.USD, p.stats.LaunchRetries, p.stats.ReVotes,
			p.stats.ProbeRetries+p.stats.ProbeSkips, p.stats.FaultUSD)
		key := fmt.Sprintf("%s_f%.0f", u.variant.name, 100*u.level)
		res.Metrics["cov_"+key] = cov
		res.Metrics["usd_"+key] = p.stats.USD
		res.Metrics["faultusd_"+key] = p.stats.FaultUSD
		if base := zeroCov[u.variant.name]; base > 0 && u.level > 0 {
			res.Metrics["retention_"+key] = cov / base
		}
	}
	for _, v := range variants {
		var xs, ys []float64
		for i, u := range units {
			if u.variant.name != v.name {
				continue
			}
			xs = append(xs, u.level)
			ys = append(ys, rows[i].coverage())
		}
		fig.AddSeries(v.name, xs, ys)
	}
	res.Tables = append(res.Tables, tbl)
	res.Figures = append(res.Figures, fig)

	res.note("same world seed per cell; fault level and hardening are the only variables")
	res.note("hardened budgets: %d launch retries (%v backoff), vote budget %d, probe retry budget %d; optimized-raw zeroes all of them, so its first unrecovered fault kills the campaign", faultRecovery.LaunchRetries, faultRecovery.RetryBackoff, faultRecovery.VoteBudget, faultRecovery.ProbeRetryBudget)
	return res, nil
}
