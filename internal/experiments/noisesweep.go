package experiments

import (
	"fmt"
	"sync"
	"time"

	"eaao/internal/core/attack"
	"eaao/internal/core/covert"
	"eaao/internal/core/fingerprint"
	"eaao/internal/faas"
	"eaao/internal/report"
)

// The noisesweep experiment is the robustness story of the background-traffic
// layer: how the attack stack degrades as platform utilization rises from an
// idle data center (every seed-era experiment's environment) to a saturated
// one, and what the campaign's noise-hardening ladder buys back at what
// price. Part 1 measures the raw primitives against ground truth — CTest
// false-positive/negative rates and margin health per channel, plus Gen 1
// fingerprint agreement, on host-verified instance pairs. Part 2 runs full
// campaigns per (utilization tier x channel x hardened/unhardened) and scores
// claimed coverage against HostID ground truth, with the adaptation spend
// itemized in the NoiseUSD ledger.

// noiseTier is one utilization point of the sweep.
type noiseTier struct {
	name string  // table label
	key  string  // metric-name component
	util float64 // TrafficModel target utilization (0 = no traffic)
}

// noiseTiers returns the utilization sweep: the quiet seed-era world, a busy
// region at 70% of serving capacity, and a saturated one past the congestion
// knee. Quick mode keeps the endpoints — the tiers that bound the story.
func (c Context) noiseTiers() []noiseTier {
	tiers := []noiseTier{
		{name: "idle", key: "idle", util: 0},
		{name: "busy", key: "busy", util: 0.70},
		{name: "saturated", key: "sat", util: 1.05},
	}
	if c.Quick {
		return []noiseTier{tiers[0], tiers[2]}
	}
	return tiers
}

// noiseWarmup is the simulated time a loaded world runs before anything is
// measured, so bystander populations have ramped to target and burst/diurnal
// modulation is live.
const noiseWarmup = 2 * time.Hour

// noiseLaunchRetries overrides the fault preset's launch retries for the
// campaign cells: a saturated region sheds more launch waves than faults do.
const noiseLaunchRetries = 6

// noiseProfile is the ablation region with background traffic at the given
// utilization target: one bystander tenant per host, Zipf-weighted.
func noiseProfile(util float64) faas.RegionProfile {
	p := ablationProfile()
	if util > 0 {
		p.Traffic = faas.DefaultTrafficModel(p.NumHosts, util)
	}
	return p
}

// noiseCampaignWorld returns a fork of the warmed loaded world (no launches):
// the first request per (seed, util) builds and warms once, every trial forks
// that instant.
func noiseCampaignWorld(seed uint64, util float64) (*faas.Platform, error) {
	v, _ := noiseWorlds.LoadOrStore(fmt.Sprintf("camp|%d|%g", seed, util), &launchedWorld{})
	w := v.(*launchedWorld)
	w.once.Do(func() {
		pl := forkPlatform(seed, noiseProfile(util))
		pl.Scheduler().Advance(noiseWarmup)
		w.snap, w.err = pl.Snapshot()
	})
	if w.err != nil {
		return nil, w.err
	}
	return w.snap.MustRestore(), nil
}

// noiseProbeWorld is noiseCampaignWorld plus an n-instance probe launch from
// one account, used by the ground-truth pair study. The launch retries
// through congestion rejections like any production deploy pipeline.
func noiseProbeWorld(seed uint64, n int, util float64) (*faas.Platform, []*faas.Instance, error) {
	v, _ := noiseWorlds.LoadOrStore(fmt.Sprintf("probe|%d|%d|%g", seed, n, util), &launchedWorld{})
	w := v.(*launchedWorld)
	w.once.Do(func() {
		pl := forkPlatform(seed, noiseProfile(util))
		pl.Scheduler().Advance(noiseWarmup)
		if _, _, err := coldVictim(pl.MustRegion("ablation"), "a", "s", faas.ServiceConfig{}, n, 1); err != nil {
			w.err = err
			return
		}
		w.snap, w.err = pl.Snapshot()
	})
	if w.err != nil {
		return nil, nil, w.err
	}
	pl := w.snap.MustRestore()
	insts := pl.MustRegion("ablation").Account("a").
		DeployService("s", faas.ServiceConfig{}).Instances()
	return pl, insts, nil
}

var noiseWorlds sync.Map // "kind|seed|..." → *launchedWorld

// groundTruthPairs splits the probe launch into disjoint host-verified
// co-located and separated index pairs (at most limit of each), using
// Instance.HostID ground truth — permitted for experiment scoring only.
func groundTruthPairs(insts []*faas.Instance, limit int) (co, far [][2]int) {
	byHost := make(map[faas.HostID][]int)
	var order []faas.HostID
	for i, inst := range insts {
		h, ok := inst.HostID()
		if !ok {
			continue
		}
		if _, seen := byHost[h]; !seen {
			order = append(order, h)
		}
		byHost[h] = append(byHost[h], i)
	}
	for _, h := range order {
		members := byHost[h]
		for j := 0; j+1 < len(members) && len(co) < limit; j += 2 {
			co = append(co, [2]int{members[j], members[j+1]})
		}
		if len(co) >= limit {
			break
		}
	}
	for j := 0; j+1 < len(order) && len(far) < limit; j += 2 {
		far = append(far, [2]int{byHost[order[j]][0], byHost[order[j+1]][0]})
	}
	return co, far
}

// marginSink accumulates the margin signal of every observed CTest.
type marginSink struct {
	sum float64
	n   int
}

func (s *marginSink) ObserveTest(ev covert.TestEvent) {
	s.sum += ev.MinMargin
	s.n++
}

func (s *marginSink) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// groundTruthCoverage scores a Verify result against HostID ground truth: the
// fraction of victims that actually share a host with a claimed spy. The gap
// to the claimed coverage fraction is the verification's false-coverage.
func groundTruthCoverage(victims, spies []*faas.Instance) float64 {
	if len(victims) == 0 {
		return 0
	}
	hosts := make(map[faas.HostID]bool, len(spies))
	for _, s := range spies {
		if h, ok := s.HostID(); ok {
			hosts[h] = true
		}
	}
	covered := 0
	for _, v := range victims {
		if h, ok := v.HostID(); ok && hosts[h] {
			covered++
		}
	}
	return float64(covered) / float64(len(victims))
}

// noiseChannels returns the single channels of the part-1 primitive study.
// Only the LLC family carries load-sensitive physics; rng and membus are the
// control group that should stay flat across tiers.
func (c Context) noiseChannels() []string {
	if c.Quick {
		return []string{"rng", "llc"}
	}
	return []string{"rng", "llc", "membus"}
}

// noiseCampaignChannels returns the channels part 2 campaigns run on.
func (c Context) noiseCampaignChannels() []string {
	if c.Quick {
		return []string{"llc"}
	}
	return []string{"llc", "rng"}
}

func runNoiseSweep(ctx Context) (*Result, error) {
	d, _ := ByID("noisesweep")
	res := newResult(d)
	n := 150
	pairLimit := 30
	if !ctx.Quick {
		n = 400
		pairLimit = 40
	}
	tiers := ctx.noiseTiers()
	channels := ctx.noiseChannels()

	// Part 1: primitive health on ground-truth pairs, per (tier x channel) on
	// forks of one warmed probe world per tier (ctx.Seed+45). The trial
	// sub-seed is deliberately unused; the world seed is the only randomness.
	type pCell struct {
		tier noiseTier
		ch   string
	}
	var pUnits []pCell
	for _, tier := range tiers {
		for _, ch := range channels {
			pUnits = append(pUnits, pCell{tier, ch})
		}
	}
	type pRow struct {
		util    float64 // measured at test time
		co, far int
		fn, fp  int // CTest errors against ground truth
		margin  float64
		fpFN    int // fingerprint disagreements on co-located pairs
		fpFP    int // fingerprint collisions on separated pairs
	}
	pRows, err := runTrials(ctx, len(pUnits), func(t Trial) (pRow, error) {
		u := pUnits[t.Index]
		pl, insts, err := noiseProbeWorld(ctx.Seed+45, n, u.tier.util)
		if err != nil {
			return pRow{}, err
		}
		dc := pl.MustRegion("ablation")
		co, far := groundTruthPairs(insts, pairLimit)
		row := pRow{util: dc.Utilization(), co: len(co), far: len(far)}

		// Fingerprint agreement on the same pairs (load-independent by
		// design — boot-time identity does not see cache pressure).
		keys := make(map[int]string, 2*len(co))
		key := func(i int) (string, error) {
			if k, ok := keys[i]; ok {
				return k, nil
			}
			s, err := fingerprint.CollectGen1(insts[i].MustGuest())
			if err != nil {
				return "", err
			}
			k := fmt.Sprint(fingerprint.Gen1FromSample(s, fingerprint.DefaultPrecision).Key())
			keys[i] = k
			return k, nil
		}
		for _, pr := range co {
			a, err := key(pr[0])
			if err != nil {
				return pRow{}, err
			}
			b, err := key(pr[1])
			if err != nil {
				return pRow{}, err
			}
			if a != b {
				row.fpFN++
			}
		}
		for _, pr := range far {
			a, err := key(pr[0])
			if err != nil {
				return pRow{}, err
			}
			b, err := key(pr[1])
			if err != nil {
				return pRow{}, err
			}
			if a == b {
				row.fpFP++
			}
		}

		// CTest error rates with the channel's stock (quiet-world) config —
		// the configuration an unhardened campaign trusts.
		runner, err := covert.RunnerFor(u.ch, pl.Scheduler(), 0)
		if err != nil {
			return pRow{}, err
		}
		sink := &marginSink{}
		runner.SetSink(sink)
		for _, pr := range co {
			pos, err := runner.PairTest(insts[pr[0]], insts[pr[1]])
			if err != nil {
				return pRow{}, err
			}
			if !pos {
				row.fn++
			}
		}
		row.margin = sink.mean() // margin health of the decisive (co-located) tests
		for _, pr := range far {
			pos, err := runner.PairTest(insts[pr[0]], insts[pr[1]])
			if err != nil {
				return pRow{}, err
			}
			if pos {
				row.fp++
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	pTbl := report.NewTable(fmt.Sprintf("Noise sweep: primitive health on %d ground-truth pairs per class", pairLimit),
		"tier", "utilization", "channel", "CTest FN", "CTest FP", "co-pair margin", "fingerprint FN", "fingerprint FP")
	for i, u := range pUnits {
		r := pRows[i]
		fnRate := rate(r.fn, r.co)
		fpRate := rate(r.fp, r.far)
		pTbl.AddRow(u.tier.name, fmt.Sprintf("%.2f", r.util), u.ch,
			fmt.Sprintf("%.3f", fnRate), fmt.Sprintf("%.3f", fpRate),
			fmt.Sprintf("%.3f", r.margin),
			fmt.Sprintf("%.3f", rate(r.fpFN, r.co)), fmt.Sprintf("%.3f", rate(r.fpFP, r.far)))
		key := fmt.Sprintf("%s_%s", u.ch, u.tier.key)
		res.Metrics["ctest_fn_"+key] = fnRate
		res.Metrics["ctest_fp_"+key] = fpRate
		res.Metrics["margin_"+key] = r.margin
		if u.ch == channels[0] {
			// Fingerprint agreement is channel-independent; record per tier.
			res.Metrics["fprint_fn_"+u.tier.key] = rate(r.fpFN, r.co)
			res.Metrics["fprint_fp_"+u.tier.key] = rate(r.fpFP, r.far)
			res.Metrics["util_"+u.tier.key] = r.util
		}
	}
	res.Tables = append(res.Tables, pTbl)

	// Part 2: full campaigns per (tier x channel x hardened/unhardened), on
	// forks of one warmed campaign world per tier (ctx.Seed+47). Both
	// variants carry the faultsweep's launch/probe retry budgets — congestion
	// sheds launch waves on a saturated region — so the noise ladder itself
	// is the only difference between the paired cells.
	campChannels := ctx.noiseCampaignChannels()
	type cCell struct {
		tier     noiseTier
		ch       string
		hardened bool
	}
	var cUnits []cCell
	for _, tier := range tiers {
		for _, ch := range campChannels {
			cUnits = append(cUnits, cCell{tier, ch, false}, cCell{tier, ch, true})
		}
	}
	cRows, err := runTrials(ctx, len(cUnits), func(t Trial) (cell, error) {
		u := cUnits[t.Index]
		pl, err := noiseCampaignWorld(ctx.Seed+47, u.tier.util)
		if err != nil {
			return cell{}, err
		}
		cfg := ablationConfig(n, 4).WithFaultRecovery()
		cfg.Channel = u.ch
		cfg.LaunchRetries = noiseLaunchRetries
		if u.hardened {
			cfg = cfg.WithNoiseRecovery()
		}
		return runCell(pl.MustRegion("ablation"), cfg, attack.OptimizedStrategy{})
	})
	if err != nil {
		return nil, err
	}
	cTbl := report.NewTable("Noise sweep: campaign coverage and adaptation spend",
		"tier", "channel", "config", "coverage", "true coverage", "low-margin", "ladder", "USD", "noise USD", "$/victim")
	for i, u := range cUnits {
		r := cRows[i]
		variant := "stock"
		if u.hardened {
			variant = "hard"
		}
		covFrac, trueCov, status := r.coverage(), 0.0, ""
		if r.died {
			status = " (died)"
		} else {
			trueCov = groundTruthCoverage(r.victims, r.spies)
		}
		ladder := fmt.Sprintf("%dc/%de/%df/%dq", r.stats.Calibrations,
			r.stats.NoiseEscalations, r.stats.ChannelFallbacks, r.stats.Quarantined)
		cTbl.AddRow(u.tier.name+status, u.ch, variant, covFrac, trueCov,
			r.stats.LowMarginTests, ladder, r.stats.USD, r.stats.NoiseUSD, r.stats.CostPerVictim())
		key := fmt.Sprintf("%s_%s_%s", u.ch, u.tier.key, variant)
		res.Metrics["cov_"+key] = covFrac
		res.Metrics["truecov_"+key] = trueCov
		res.Metrics["usd_"+key] = r.stats.USD
		res.Metrics["cpv_"+key] = r.stats.CostPerVictim()
		res.Metrics["noiseusd_"+key] = r.stats.NoiseUSD
		res.Metrics["lowmargin_"+key] = float64(r.stats.LowMarginTests)
	}
	res.Tables = append(res.Tables, cTbl)

	res.note("part 1: one warmed probe world per tier (seed+45, %s warm-up, %d bystander tenants); stock channel configs on host-verified pairs", noiseWarmup, ablationProfile().NumHosts)
	res.note("part 2: one warmed campaign world per tier (seed+47); both variants carry fault budgets (%d launch retries, vote budget %d, probe retry budget %d), hardened adds calibration, margin-watched escalation to an rng fallback, quarantine, and congestion backoff", noiseLaunchRetries, faultRecovery.VoteBudget, faultRecovery.ProbeRetryBudget)
	res.note("ladder column: calibrations/escalations/fallbacks/quarantined; noise USD is the attribution share of the bill a quiet world would not have paid")
	res.note("fingerprints are boot-time identity and stay exact under load; the covert channel is the load-sensitive primitive, and only the LLC family carries bystander physics")
	return res, nil
}

// rate is a safe ratio for small-count error tables.
func rate(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
