package experiments

import (
	"fmt"
	"sync"
	"time"

	"eaao/internal/core/attack"
	"eaao/internal/core/coloc"
	"eaao/internal/core/covert"
	"eaao/internal/core/fingerprint"
	"eaao/internal/faas"
	"eaao/internal/metrics"
	"eaao/internal/report"
	"eaao/internal/sandbox"
)

// ablationProfile is a single mid-sized region used by every ablation, so
// rows within one table are directly comparable.
func ablationProfile() faas.RegionProfile {
	p := faas.USEast1Profile()
	p.Name = "ablation"
	p.NumHosts = 300
	p.PlacementGroups = 3
	p.BasePoolSize = 90
	p.AccountHelperPool = 90
	p.ServiceHelperSize = 70
	p.ServiceHelperFresh = 5
	return p
}

// ablationConfig is the ablations' standard campaign: DefaultConfig with 2
// services and n instances per launch, launched launches times.
func ablationConfig(n, launches int) attack.Config {
	cfg := attack.DefaultConfig()
	cfg.Services = 2
	cfg.InstancesPerLaunch = n
	cfg.Launches = launches
	return cfg
}

// ablationWorld launches n instances in a fresh ablation region. The
// launched world — not just the empty region — rides the snapshot path: the
// first (seed, n, gen) request builds and launches once, and every other
// trial of the sweep forks that instant instead of replaying placement. No
// simulated time passes between the launch and the snapshot, so the fork's
// instance list is exactly the launch batch, in launch order.
func ablationWorld(seed uint64, n int, gen sandbox.Gen) (*faas.Platform, []*faas.Instance, error) {
	v, _ := ablationWorlds.LoadOrStore(fmt.Sprintf("%d|%d|%v", seed, n, gen), &launchedWorld{})
	w := v.(*launchedWorld)
	w.once.Do(func() {
		pl := forkPlatform(seed, ablationProfile())
		if _, err := pl.MustRegion("ablation").Account("a").
			DeployService("s", faas.ServiceConfig{Gen: gen}).Launch(n); err != nil {
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
		DeployService("s", faas.ServiceConfig{Gen: gen}).Instances()
	return pl, insts, nil
}

// launchedWorld is a snapshot cut after a scripted launch, plus the error
// that aborted the script (sticky: a failed script fails every trial of the
// sweep identically, like the per-trial builds it replaced would have).
type launchedWorld struct {
	once sync.Once
	snap *faas.Snapshot
	err  error
}

var ablationWorlds sync.Map // "seed|n|gen" → *launchedWorld

func ablationItems(insts []*faas.Instance) ([]coloc.Item, error) {
	items := make([]coloc.Item, len(insts))
	for i, inst := range insts {
		s, err := fingerprint.CollectGen1(inst.MustGuest())
		if err != nil {
			return nil, err
		}
		fp := fingerprint.Gen1FromSample(s, fingerprint.DefaultPrecision)
		items[i] = coloc.Item{Inst: inst, Fingerprint: fp.Key()}
	}
	return items, nil
}

func runAblations(ctx Context) (*Result, error) {
	d, _ := ByID("ablations")
	res := newResult(d)
	n := 150
	if !ctx.Quick {
		n = 400
	}

	// Every sweep below pins its world seed (ctx.Seed+k, identical across
	// the sweep's values) so rows within one table stay directly
	// comparable; the trial engine parallelizes the sweep values, each in
	// its own world, and the trial sub-seed is deliberately unused.

	// 1. Contention threshold m: group size per test vs tests consumed.
	type mRow struct {
		tests             int
		recall, precision float64
	}
	ms := []int{2, 3, 4}
	mRows, err := runTrials(ctx, len(ms), func(t Trial) (mRow, error) {
		m := ms[t.Index]
		pl, insts, err := ablationWorld(ctx.Seed+1, n, sandbox.Gen1)
		if err != nil {
			return mRow{}, err
		}
		items, err := ablationItems(insts)
		if err != nil {
			return mRow{}, err
		}
		tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())
		ver, err := coloc.Verify(tester, items, coloc.Options{M: m})
		if err != nil {
			return mRow{}, err
		}
		truth := make([]faas.HostID, len(insts))
		for i, inst := range insts {
			truth[i], _ = inst.HostID()
		}
		sc := metrics.ScoreOf(ver.Labels, truth)
		return mRow{ver.Tests, sc.Recall, sc.Precision}, nil
	})
	if err != nil {
		return nil, err
	}
	mTbl := report.NewTable("Ablation: CTest contention threshold m",
		"m", "max group per test", "tests", "recall", "precision")
	for mi, m := range ms {
		r := mRows[mi]
		mTbl.AddRow(m, covert.MaxGroupSize(m), r.tests, r.recall, r.precision)
		res.Metrics[fmt.Sprintf("m%d_tests", m)] = float64(r.tests)
		res.Metrics[fmt.Sprintf("m%d_recall", m)] = r.recall
	}
	res.Tables = append(res.Tables, mTbl)

	// 2. Verification method: scalable vs pairwise vs SIE, each executed
	// against its own copy of the same world.
	type vRow struct {
		tests      int
		serialized time.Duration
	}
	methods := []string{"scalable (ours)", "pairwise", "SIE+pairwise"}
	vRows, err := runTrials(ctx, len(methods), func(t Trial) (vRow, error) {
		pl, insts, err := ablationWorld(ctx.Seed+2, n/2, sandbox.Gen1)
		if err != nil {
			return vRow{}, err
		}
		tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())
		var ver *coloc.Result
		switch t.Index {
		case 0:
			items, err := ablationItems(insts)
			if err != nil {
				return vRow{}, err
			}
			ver, err = coloc.Verify(tester, items, coloc.DefaultOptions())
			if err != nil {
				return vRow{}, err
			}
		case 1:
			ver, err = coloc.VerifyPairwise(tester, insts)
			if err != nil {
				return vRow{}, err
			}
		default:
			ver, err = coloc.VerifySIE(tester, insts)
			if err != nil {
				return vRow{}, err
			}
		}
		return vRow{ver.Tests, ver.SerializedTime}, nil
	})
	if err != nil {
		return nil, err
	}
	vTbl := report.NewTable("Ablation: verification method", "method", "tests", "serialized time")
	for vi, method := range methods {
		vTbl.AddRow(method, vRows[vi].tests, vRows[vi].serialized.String())
	}
	res.Metrics["verify_scalable_tests"] = float64(vRows[0].tests)
	res.Metrics["verify_pairwise_tests"] = float64(vRows[1].tests)
	res.Metrics["verify_sie_tests"] = float64(vRows[2].tests)
	res.Tables = append(res.Tables, vTbl)

	// 3. Covert channel: RNG vs memory bus at equal verification quality.
	channels := []struct {
		name string
		cfg  covert.Config
	}{{"rng", covert.DefaultConfig()}, {"membus", covert.MemBusConfig()}}
	chRows, err := runTrials(ctx, len(channels), func(t Trial) (vRow, error) {
		pl, insts, err := ablationWorld(ctx.Seed+3, n/2, sandbox.Gen1)
		if err != nil {
			return vRow{}, err
		}
		items, err := ablationItems(insts)
		if err != nil {
			return vRow{}, err
		}
		tester := covert.NewTester(pl.Scheduler(), channels[t.Index].cfg)
		ver, err := coloc.Verify(tester, items, coloc.DefaultOptions())
		if err != nil {
			return vRow{}, err
		}
		return vRow{ver.Tests, ver.SerializedTime}, nil
	})
	if err != nil {
		return nil, err
	}
	cTbl := report.NewTable("Ablation: covert channel", "channel", "tests", "serialized time")
	for ci, c := range channels {
		cTbl.AddRow(c.name, chRows[ci].tests, chRows[ci].serialized.String())
		res.Metrics["channel_"+c.name+"_minutes"] = chRows[ci].serialized.Minutes()
	}
	res.Tables = append(res.Tables, cTbl)

	// 4. Launch interval: the demand-window sweet spot.
	intervals := []time.Duration{2 * time.Minute, 10 * time.Minute, 45 * time.Minute}
	iRows, err := runTrials(ctx, len(intervals), func(t Trial) (int, error) {
		pl := forkPlatform(ctx.Seed+4, ablationProfile())
		dc := pl.MustRegion("ablation")
		cfg := ablationConfig(n, 4)
		cfg.Interval = intervals[t.Index]
		camp, err := launchCampaign(dc, "atk", cfg, attack.OptimizedStrategy{}, sandbox.Gen1)
		if err != nil {
			return 0, err
		}
		return camp.Stats().ApparentHosts, nil
	})
	if err != nil {
		return nil, err
	}
	iTbl := report.NewTable("Ablation: optimized-strategy launch interval",
		"interval", "attacker footprint (apparent hosts)")
	for ii, interval := range intervals {
		iTbl.AddRow(interval.String(), iRows[ii])
		res.Metrics["interval_"+interval.String()] = float64(iRows[ii])
	}
	res.Tables = append(res.Tables, iTbl)

	// 5. Service count: diminishing returns from overlapping helper sets.
	serviceCounts := []int{1, 3, 6}
	sRows, err := runTrials(ctx, len(serviceCounts), func(t Trial) (int, error) {
		pl := forkPlatform(ctx.Seed+5, ablationProfile())
		dc := pl.MustRegion("ablation")
		cfg := ablationConfig(n, 4)
		cfg.Services = serviceCounts[t.Index]
		camp, err := launchCampaign(dc, "atk", cfg, attack.OptimizedStrategy{}, sandbox.Gen1)
		if err != nil {
			return 0, err
		}
		return camp.Stats().ApparentHosts, nil
	})
	if err != nil {
		return nil, err
	}
	sTbl := report.NewTable("Ablation: attacker service count",
		"services", "attacker footprint (apparent hosts)")
	for si, services := range serviceCounts {
		sTbl.AddRow(services, sRows[si])
		res.Metrics[fmt.Sprintf("services_%d", services)] = float64(sRows[si])
	}
	res.Tables = append(res.Tables, sTbl)

	// 6. Dynamic placement: coverage vs base-pool resampling fraction.
	fracs := []float64{0, 0.25, 0.5, 0.75}
	dRows, err := runTrials(ctx, len(fracs), func(t Trial) (float64, error) {
		frac := fracs[t.Index]
		p := ablationProfile()
		if frac > 0 {
			p.DynamicPlacement = true
			p.DynamicResampleFrac = frac
		}
		c, err := runCell(forkPlatform(ctx.Seed+11, p).MustRegion("ablation"),
			ablationConfig(n, 4), attack.OptimizedStrategy{})
		return c.coverage(), err
	})
	if err != nil {
		return nil, err
	}
	dTbl := report.NewTable("Ablation: dynamic placement (us-central1 mechanism)",
		"resample fraction", "victim coverage")
	for di, frac := range fracs {
		dTbl.AddRow(frac, dRows[di])
		res.Metrics[fmt.Sprintf("dynamic_%.2f", frac)] = dRows[di]
	}
	res.Tables = append(res.Tables, dTbl)

	// 7. Frequency source (§4.2, method 1 vs method 2): the reported
	// frequency works on every host but drifts, so fingerprints recorded
	// today stop matching after days; the measured frequency is drift-free
	// but useless on timekeeping-disturbed hosts. Survival = fraction of
	// tracked hosts whose day-0 fingerprint still matches at day 5.
	fTbl := report.NewTable("Ablation: TSC frequency source (method 1 vs 2)",
		"method", "hosts usable", "5-day fingerprint survival")
	{
		p := ablationProfile()
		p.InstanceChurnPerHour = 0 // hold the same instances for 5 days
		pl := forkPlatform(ctx.Seed+6, p)
		dc := pl.MustRegion("ablation")
		insts, err := dc.Account("a").DeployService("s", faas.ServiceConfig{}).Launch(n)
		if err != nil {
			return nil, err
		}
		// One representative per host (ground truth just picks the reps;
		// measurement is guest-only).
		seen := make(map[faas.HostID]bool)
		var reps []*faas.Instance
		for _, inst := range insts {
			if id, _ := inst.HostID(); !seen[id] {
				seen[id] = true
				reps = append(reps, inst)
			}
		}
		type snap struct {
			reported fingerprint.Gen1
			measured fingerprint.Gen1
			usable   bool
		}
		record := func() ([]snap, error) {
			out := make([]snap, len(reps))
			for i, inst := range reps {
				g := inst.MustGuest()
				sm, err := fingerprint.CollectGen1(g)
				if err != nil {
					return nil, err
				}
				out[i].reported = fingerprint.Gen1FromSample(sm, fingerprint.DefaultPrecision)
				m, err := fingerprint.MeasureFrequency(g, dc.Scheduler(), 100*time.Millisecond, 10)
				if err != nil {
					return nil, err
				}
				out[i].usable = m.Usable()
				out[i].measured = fingerprint.Gen1FromBootTime(
					sm.Model, fingerprint.BootTimeMeasured(sm, m), fingerprint.DefaultPrecision)
			}
			return out, nil
		}
		day0, err := record()
		if err != nil {
			return nil, err
		}
		dc.Scheduler().Advance(5 * 24 * time.Hour)
		day5, err := record()
		if err != nil {
			return nil, err
		}
		var repSurvived, repTotal, measSurvived, measTotal int
		for i := range reps {
			repTotal++
			if day0[i].reported == day5[i].reported {
				repSurvived++
			}
			if day0[i].usable && day5[i].usable {
				measTotal++
				// Drift-free matching still tolerates the rounding
				// boundary: adjacent buckets count as a match.
				d := day0[i].measured.BootBucket - day5[i].measured.BootBucket
				if day0[i].measured.Model == day5[i].measured.Model && d >= -1 && d <= 1 {
					measSurvived++
				}
			}
		}
		repRate := float64(repSurvived) / float64(repTotal)
		measRate := float64(measSurvived) / float64(measTotal)
		fTbl.AddRow("reported frequency (method 1)", fmt.Sprintf("%d/%d", repTotal, repTotal), repRate)
		fTbl.AddRow("measured frequency (method 2)", fmt.Sprintf("%d/%d", measTotal, repTotal), measRate)
		res.Metrics["freq_reported_survival"] = repRate
		res.Metrics["freq_measured_survival"] = measRate
		res.Metrics["freq_measured_usable_frac"] = float64(measTotal) / float64(repTotal)
	}
	res.Tables = append(res.Tables, fTbl)

	res.note("design-choice sweeps behind the headline results; the same ablations run as benchmarks (go test -bench Ablation)")
	res.note("frequency-source ablation: method 1 covers every host but its fingerprints expire over days; method 2 survives indefinitely on the ~90%% of hosts where it works at all — the paper chooses method 1 and simply refreshes (§4.2)")
	return res, nil
}
