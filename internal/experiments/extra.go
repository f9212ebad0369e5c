package experiments

import (
	"fmt"
	"time"

	"eaao/internal/core/attack"
	"eaao/internal/core/coloc"
	"eaao/internal/core/covert"
	"eaao/internal/core/fingerprint"
	"eaao/internal/faas"
	"eaao/internal/metrics"
	"eaao/internal/pricing"
	"eaao/internal/report"
	"eaao/internal/sandbox"
	"eaao/internal/stats"
)

func runTable1(ctx Context) (*Result, error) {
	d, _ := ByID("table1")
	res := newResult(d)
	rates := pricing.CloudRunRates()
	tbl := report.NewTable("Container sizes (Table 1)", "size", "vCPUs", "memory (GB)", "$/instance-hour")
	for _, s := range faas.SizeCatalog {
		tbl.AddRow(s.Name, s.VCPU, s.MemoryGB, rates.InstanceSecondCost(s.VCPU, s.MemoryGB)*3600)
	}
	res.Tables = append(res.Tables, tbl)
	res.Metrics["sizes"] = float64(len(faas.SizeCatalog))
	res.note("Pico 0.25 vCPU/256MB, Small 1/512MB (default), Medium 2/1GB, Large 4/4GB")
	return res, nil
}

func runFreq(ctx Context) (*Result, error) {
	d, _ := ByID("freq")
	res := newResult(d)
	// Single-region study: build only us-east1 (identical world, less setup).
	pl := forkPlatform(ctx.Seed, ctx.regionProfile(faas.USEast1))
	dc := pl.MustRegion(faas.USEast1)

	svc := dc.Account("account-1").DeployService("freq-study", faas.ServiceConfig{})
	insts, err := svc.Launch(ctx.launchSize())
	if err != nil {
		return nil, err
	}

	// One representative per apparent host, then measure the TSC frequency
	// on each with the paper's Δt ≈ 100 ms and 10 repetitions.
	seen := make(map[fingerprint.Gen1]bool)
	var stds []float64
	problematic, healthy := 0, 0
	for _, inst := range insts {
		g, err := inst.Guest()
		if err != nil {
			return nil, err
		}
		s, err := fingerprint.CollectGen1(g)
		if err != nil {
			return nil, err
		}
		fp := fingerprint.Gen1FromSample(s, fingerprint.DefaultPrecision)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		m, err := fingerprint.MeasureFrequency(g, dc.Scheduler(), 100*time.Millisecond, 10)
		if err != nil {
			return nil, err
		}
		stds = append(stds, m.StdHz)
		if m.Usable() {
			healthy++
		} else {
			problematic++
		}
	}
	total := healthy + problematic

	tbl := report.NewTable("Measured TSC frequency stability (Δt=100ms, 10 reps)",
		"hosts", "usable (<10kHz std)", "problematic", "median std (Hz)", "p90 std (Hz)")
	tbl.AddRow(total, healthy, problematic, stats.Median(stds), stats.Percentile(stds, 90))
	res.Tables = append(res.Tables, tbl)

	res.Metrics["hosts"] = float64(total)
	res.Metrics["problematic"] = float64(problematic)
	res.Metrics["problematic_frac"] = float64(problematic) / float64(total)
	res.Metrics["median_std_hz"] = stats.Median(stds)
	res.note("paper: most hosts show stddev < 100 Hz; 58 of 586 hosts (~10%%) show 10 kHz–MHz and defeat the measured-frequency method")
	return res, nil
}

func runVerifyCost(ctx Context) (*Result, error) {
	d, _ := ByID("verifycost")
	res := newResult(d)
	// Single-region study: build only us-east1 (identical world, less setup).
	pl := forkPlatform(ctx.Seed, ctx.regionProfile(faas.USEast1))
	dc := pl.MustRegion(faas.USEast1)
	rates := pricing.CloudRunRates()

	svc := dc.Account("account-1").DeployService("verify-study", faas.ServiceConfig{})
	insts, err := svc.Launch(ctx.launchSize())
	if err != nil {
		return nil, err
	}
	n := len(insts)

	// Our scalable methodology, actually executed.
	tester := covert.NewTester(dc.Scheduler(), covert.DefaultConfig())
	items := make([]coloc.Item, n)
	for i, inst := range insts {
		s, err := fingerprint.CollectGen1(inst.MustGuest())
		if err != nil {
			return nil, err
		}
		fp := fingerprint.Gen1FromSample(s, fingerprint.DefaultPrecision)
		items[i] = coloc.Item{Inst: inst, Fingerprint: fp.Key()}
	}
	ours, err := coloc.Verify(tester, items, coloc.DefaultOptions())
	if err != nil {
		return nil, err
	}
	oursCost := rates.CampaignCost(n, ours.SerializedTime.Seconds(), faas.SizeSmall.VCPU, faas.SizeSmall.MemoryGB)

	// Pairwise baseline, costed analytically exactly as the paper does
	// (100 ms per serialized test, the full fleet kept alive throughout).
	pairTests := coloc.PairwiseTestCount(n)
	pairTime := time.Duration(pairTests) * tester.Config().TestDuration
	pairCost := rates.CampaignCost(n, pairTime.Seconds(), faas.SizeSmall.VCPU, faas.SizeSmall.MemoryGB)

	// SIE, actually executed on the full instance set, to demonstrate that
	// the filter removes (nearly) nothing in a FaaS environment: the
	// orchestrator stacks ~10 instances per host, so every instance is
	// co-located with someone and survives the elimination round.
	sieTester := covert.NewTester(dc.Scheduler(), covert.DefaultConfig())
	sie, err := coloc.VerifySIE(sieTester, insts)
	if err != nil {
		return nil, err
	}
	sieCost := rates.CampaignCost(n, sie.SerializedTime.Seconds(), faas.SizeSmall.VCPU, faas.SizeSmall.MemoryGB)

	tbl := report.NewTable(fmt.Sprintf("Verifying co-location of %d instances", n),
		"method", "tests", "serialized time", "USD")
	tbl.AddRow("scalable (ours)", ours.Tests, ours.SerializedTime.String(), oursCost)
	tbl.AddRow("pairwise", pairTests, pairTime.String(), pairCost)
	tbl.AddRow("SIE+pairwise", sie.Tests, sie.SerializedTime.String(), sieCost)
	res.Tables = append(res.Tables, tbl)

	res.Metrics["ours_tests"] = float64(ours.Tests)
	res.Metrics["ours_minutes"] = ours.SerializedTime.Minutes()
	res.Metrics["ours_usd"] = oursCost
	res.Metrics["pairwise_tests"] = float64(pairTests)
	res.Metrics["pairwise_hours"] = pairTime.Hours()
	res.Metrics["pairwise_usd"] = pairCost
	res.Metrics["speedup"] = float64(pairTests) / float64(ours.Tests)
	res.Metrics["sie_tests"] = float64(sie.Tests)
	res.note("paper (n=800): pairwise needs 319,600 tests ≈ 8.9 h ≈ $645; ours takes ~1–2 min ≈ $1–3; SIE fails to eliminate instances because every instance shares its host")
	return res, nil
}

func runGen2Accuracy(ctx Context) (*Result, error) {
	d, _ := ByID("gen2")
	res := newResult(d)
	profiles := ctx.Profiles()
	reps := ctx.reps()

	// One trial per (region × repetition); each measurement runs against
	// its own single-region world built from the trial sub-seed.
	type gen2Run struct{ fmi, prec, recall, hostsPerFp float64 }
	runs, err := runTrials(ctx, len(profiles)*reps, func(t Trial) (gen2Run, error) {
		prof := profiles[t.Index/reps]
		pl := faas.MustPlatform(t.Seed, prof)
		dc := pl.MustRegion(prof.Name)
		svc := dc.Account("account-1").DeployService("gen2-study",
			faas.ServiceConfig{Gen: sandbox.Gen2})
		insts, err := svc.Launch(ctx.launchSize())
		if err != nil {
			return gen2Run{}, err
		}
		// Fingerprint everything.
		fps := make([]fingerprint.Gen2, len(insts))
		items := make([]coloc.Item, len(insts))
		for i, inst := range insts {
			fp, err := fingerprint.CollectGen2(inst.MustGuest())
			if err != nil {
				return gen2Run{}, err
			}
			fps[i] = fp
			items[i] = coloc.Item{Inst: inst, Fingerprint: fp.Key()}
		}
		// Ground truth via the covert methodology in its Gen 2 regime.
		tester := covert.NewTester(dc.Scheduler(), covert.DefaultConfig())
		opt := coloc.DefaultOptions()
		opt.AssumeNoFalseNegatives = true
		truth, err := coloc.Verify(tester, items, opt)
		if err != nil {
			return gen2Run{}, err
		}
		counts := metrics.CountPairs(fps, truth.Labels)

		// Hosts per fingerprint.
		hostsOf := make(map[fingerprint.Gen2]map[int]bool)
		for i, fp := range fps {
			if hostsOf[fp] == nil {
				hostsOf[fp] = make(map[int]bool)
			}
			hostsOf[fp][truth.Labels[i]] = true
		}
		sum := 0
		for _, hs := range hostsOf {
			sum += len(hs)
		}
		svc.Disconnect()
		return gen2Run{
			fmi:        counts.FMI(),
			prec:       counts.Precision(),
			recall:     counts.Recall(),
			hostsPerFp: float64(sum) / float64(len(hostsOf)),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	var fmis, precs, recalls, hostsPerFp []float64
	for _, r := range runs {
		fmis = append(fmis, r.fmi)
		precs = append(precs, r.prec)
		recalls = append(recalls, r.recall)
		hostsPerFp = append(hostsPerFp, r.hostsPerFp)
	}

	tbl := report.NewTable("Gen 2 fingerprint accuracy", "FMI", "precision", "recall", "hosts/fingerprint")
	tbl.AddRow(stats.Mean(fmis), stats.Mean(precs), stats.Mean(recalls), stats.Mean(hostsPerFp))
	res.Tables = append(res.Tables, tbl)
	res.Metrics["fmi"] = stats.Mean(fmis)
	res.Metrics["precision"] = stats.Mean(precs)
	res.Metrics["recall"] = stats.Mean(recalls)
	res.Metrics["hosts_per_fingerprint"] = stats.Mean(hostsPerFp)
	res.note("paper: FMI ≈ 0.66, precision ≈ 0.48, recall = 1 (no false negatives possible), ~2.0 hosts per fingerprint")
	return res, nil
}

func runNaive(ctx Context) (*Result, error) {
	d, _ := ByID("naive")
	res := newResult(d)
	profiles := ctx.Profiles()
	attacker, victims := accounts()

	// One trial per region: each naive campaign runs against its own world.
	type naiveRun struct {
		footprint int
		coverage  []float64 // per victim account
	}
	runs, err := runTrials(ctx, len(profiles), func(t Trial) (naiveRun, error) {
		prof := profiles[t.Index]
		pl := faas.MustPlatform(t.Seed, prof)
		dc := pl.MustRegion(prof.Name)
		camp, err := ctx.attackerCampaign(dc, attacker, attack.NaiveStrategy{}, sandbox.Gen1)
		if err != nil {
			return naiveRun{}, err
		}
		run := naiveRun{footprint: camp.Stats().ApparentHosts}
		for _, vicAcct := range victims {
			svc := dc.Account(vicAcct).DeployService("victim", faas.ServiceConfig{})
			vicInsts, err := svc.Launch(ctx.defaultVictims())
			if err != nil {
				return naiveRun{}, err
			}
			cov, _, err := camp.Verify(vicInsts)
			if err != nil {
				return naiveRun{}, err
			}
			run.coverage = append(run.coverage, cov.Fraction())
			svc.Disconnect()
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("Naive strategy victim coverage", "region", "victim", "coverage", "attacker hosts")
	zeroPairs, highPairs := 0, 0
	for ri, run := range runs {
		region := profiles[ri].Name
		for vi, vicAcct := range victims {
			frac := run.coverage[vi]
			tbl.AddRow(string(region), vicAcct, frac, run.footprint)
			res.Metrics[fmt.Sprintf("coverage_%s_%s", region, vicAcct)] = frac
			switch {
			case frac == 0:
				zeroPairs++
			case frac > 0.5:
				highPairs++
			}
		}
	}
	res.Tables = append(res.Tables, tbl)
	res.Metrics["zero_pairs"] = float64(zeroPairs)
	res.Metrics["high_pairs"] = float64(highPairs)
	res.note("paper: naive launching yields zero co-location in 4 of 6 account/region pairs; only accidental base-host overlap (Acc2/us-west1 at 100%%, Acc3/us-central1 at 81%%) succeeds")
	return res, nil
}
