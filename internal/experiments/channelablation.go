package experiments

import (
	"fmt"
	"time"

	"eaao/internal/core/attack"
	"eaao/internal/core/coloc"
	"eaao/internal/core/covert"
	"eaao/internal/faas"
	"eaao/internal/metrics"
	"eaao/internal/pricing"
	"eaao/internal/report"
	"eaao/internal/sandbox"
)

// channelRegime is one fault environment of the ablation's resilience sweep.
type channelRegime struct {
	name string // table label
	key  string // metric-name suffix
	plan faas.FaultPlan
}

// channelRegimes returns the fault environments: a clean platform, the
// faultsweep's 5% acceptance point, and a misfire storm confined to the RNG
// family — the regime that separates channels, because only testers with a
// non-RNG member can still see through it.
func (c Context) channelRegimes() []channelRegime {
	var storm faas.FaultPlan
	storm.PerChannel[faas.ResourceRNG] = faas.ChannelFaultRates{
		FalsePositiveRate: 0.3,
		FalseNegativeRate: 0.3,
	}
	regimes := []channelRegime{
		{name: "fault-free", key: "clean", plan: faas.FaultPlan{}},
		{name: "uniform 5%", key: "uniform5", plan: faas.UniformFaultPlan(0.05)},
		{name: "rng misfire storm", key: "rngstorm", plan: storm},
	}
	if c.Quick {
		// The uniform regime is the faultsweep's territory; quick mode keeps
		// only the cells this ablation uniquely covers.
		return []channelRegime{regimes[0], regimes[2]}
	}
	return regimes
}

// runChannelAblation measures what each covert-channel primitive buys and
// costs, alone and majority-combined. Part 1 verifies one launched world's
// co-location with each channel's runner and prices the verification (the
// §4.3 cost methodology, per channel). Part 2 runs full campaigns per
// (channel × fault regime) and scores victim coverage — the resilience
// question: which channels survive which fault environments, and at what
// verify-stage spend.
func runChannelAblation(ctx Context) (*Result, error) {
	d, _ := ByID("channelablation")
	res := newResult(d)
	n := 150
	if !ctx.Quick {
		n = 400
	}
	channels := covert.ChannelNames()

	// Part 1: verification cost and accuracy per channel, on forks of one
	// shared launched world (ctx.Seed+41) so the channel is the only
	// variable. The trial sub-seed is deliberately unused.
	type vRow struct {
		tests      int
		serialized time.Duration
		usd        float64
		score      metrics.Score
	}
	vRows, err := runTrials(ctx, len(channels), func(t Trial) (vRow, error) {
		pl, insts, err := ablationWorld(ctx.Seed+41, n, sandbox.Gen1)
		if err != nil {
			return vRow{}, err
		}
		runner, err := covert.RunnerFor(channels[t.Index], pl.Scheduler(), 0)
		if err != nil {
			return vRow{}, err
		}
		items, err := ablationItems(insts)
		if err != nil {
			return vRow{}, err
		}
		ver, err := coloc.Verify(runner, items, coloc.DefaultOptions())
		if err != nil {
			return vRow{}, err
		}
		truth := make([]faas.HostID, len(insts))
		for i, inst := range insts {
			truth[i], _ = inst.HostID()
		}
		usd := pricing.CloudRunRates().CampaignCost(len(insts),
			ver.SerializedTime.Seconds(), faas.SizeSmall.VCPU, faas.SizeSmall.MemoryGB)
		return vRow{ver.Tests, ver.SerializedTime, usd,
			metrics.ScoreOf(ver.Labels, truth)}, nil
	})
	if err != nil {
		return nil, err
	}
	vTbl := report.NewTable(fmt.Sprintf("Channel ablation: verifying %d instances per channel", n),
		"channel", "tests", "serialized time", "USD", "precision", "recall", "FMI")
	for ci, ch := range channels {
		r := vRows[ci]
		vTbl.AddRow(ch, r.tests, r.serialized.String(), r.usd,
			r.score.Precision, r.score.Recall, r.score.FMI)
		res.Metrics["verify_tests_"+ch] = float64(r.tests)
		res.Metrics["verify_minutes_"+ch] = r.serialized.Minutes()
		res.Metrics["verify_usd_"+ch] = r.usd
		res.Metrics["verify_fmi_"+ch] = r.score.FMI
	}
	res.Tables = append(res.Tables, vTbl)

	// Part 2: campaign resilience per (channel × fault regime), on forks of
	// one shared world seed (ctx.Seed+43). Faulted regimes run with the
	// faultsweep's hardened budgets, so the channels — not the recovery
	// machinery — are what the cells compare.
	regimes := ctx.channelRegimes()
	type unit struct {
		channel string
		regime  channelRegime
	}
	var units []unit
	for _, reg := range regimes {
		for _, ch := range channels {
			units = append(units, unit{ch, reg})
		}
	}
	cRows, err := runTrials(ctx, len(units), func(t Trial) (cell, error) {
		u := units[t.Index]
		prof := ablationProfile()
		prof.Faults = u.regime.plan
		cfg := ablationConfig(n, 4)
		cfg.Channel = u.channel
		if u.regime.plan.Enabled() {
			cfg = cfg.WithFaultRecovery()
		}
		return runCell(forkPlatform(ctx.Seed+43, prof).MustRegion("ablation"), cfg, attack.OptimizedStrategy{})
	})
	if err != nil {
		return nil, err
	}
	cTbl := report.NewTable("Channel ablation: campaign coverage per channel and fault regime",
		"regime", "channel", "coverage", "CTests", "channel time", "re-votes", "USD")
	for i, u := range units {
		r := cRows[i]
		cov := r.coverage()
		status := ""
		if r.died {
			status = " (died)"
		}
		cTbl.AddRow(u.regime.name+status, u.channel, cov, r.stats.CTests,
			r.stats.CovertTime.String(), r.stats.ReVotes, r.stats.USD)
		key := fmt.Sprintf("%s_%s", u.channel, u.regime.key)
		res.Metrics["cov_"+key] = cov
		res.Metrics["ctests_"+key] = float64(r.stats.CTests)
		res.Metrics["covertmin_"+key] = r.stats.CovertTime.Minutes()
	}
	res.Tables = append(res.Tables, cTbl)

	res.note("part 1: one launched world (seed+41) verified by each channel's runner; channel is the only variable")
	res.note("part 2: one campaign world (seed+43) per cell; faulted regimes run hardened (%d launch retries, vote budget %d, probe retry budget %d)", faultRecovery.LaunchRetries, faultRecovery.VoteBudget, faultRecovery.ProbeRetryBudget)
	res.note("the rng misfire storm corrupts only the RNG family: single-channel rng campaigns survive on re-votes at a multiple of the clean CTest spend, llc/membus are untouched, and the combined tester outvotes its poisoned member")
	return res, nil
}
