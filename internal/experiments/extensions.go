package experiments

import (
	"fmt"
	"time"

	"eaao/internal/core/attack"
	"eaao/internal/core/coloc"
	"eaao/internal/core/covert"
	"eaao/internal/core/extraction"
	"eaao/internal/core/fingerprint"
	"eaao/internal/faas"
	"eaao/internal/metrics"
	"eaao/internal/report"
	"eaao/internal/sandbox"
)

// mitigatedProfiles enables the §6 defenses fleet-wide.
func (c Context) mitigatedProfiles() []faas.RegionProfile {
	profs := c.Profiles()
	for i := range profs {
		profs[i].Mitigations = sandbox.Mitigations{
			TrapAndEmulateTSC: true,
			TSCScaling:        true,
		}
	}
	return profs
}

// fingerprintScore launches instances in a region and scores raw Gen 1 or
// Gen 2 fingerprints against ground truth.
func fingerprintScore(dc *faas.DataCenter, gen sandbox.Gen, n int) (metrics.Score, error) {
	svc := dc.Account("account-1").DeployService("mit-study-"+gen.String(),
		faas.ServiceConfig{Gen: gen})
	insts, err := svc.Launch(n)
	if err != nil {
		return metrics.Score{}, err
	}
	defer svc.Disconnect()
	labels := make([]string, len(insts))
	truth := make([]faas.HostID, len(insts))
	for i, inst := range insts {
		g := inst.MustGuest()
		if gen == sandbox.Gen1 {
			s, err := fingerprint.CollectGen1(g)
			if err != nil {
				return metrics.Score{}, err
			}
			labels[i] = fingerprint.Gen1FromSample(s, fingerprint.DefaultPrecision).String()
		} else {
			fp, err := fingerprint.CollectGen2(g)
			if err != nil {
				return metrics.Score{}, err
			}
			labels[i] = fp.String()
		}
		truth[i], _ = inst.HostID()
	}
	return metrics.ScoreOf(labels, truth), nil
}

func runMitigation(ctx Context) (*Result, error) {
	d, _ := ByID("mitigation")
	res := newResult(d)

	// Baseline vs mitigated worlds as two trials. Both worlds share the
	// root seed (a controlled comparison: identical fleet, defenses on or
	// off), so the trial sub-seed is deliberately ignored.
	type worldRow struct {
		name   string
		g1, g2 metrics.Score
		tests  int
	}
	worlds := []struct {
		name     string
		profiles []faas.RegionProfile
	}{
		{"baseline", ctx.Profiles()},
		{"mitigated", ctx.mitigatedProfiles()},
	}
	rows, err := runTrials(ctx, len(worlds), func(t Trial) (worldRow, error) {
		w := worlds[t.Index]
		pl := forkPlatform(ctx.Seed, w.profiles...)
		dc := pl.MustRegion(faas.USEast1)
		g1, err := fingerprintScore(dc, sandbox.Gen1, ctx.launchSize())
		if err != nil {
			return worldRow{}, err
		}
		g2, err := fingerprintScore(dc, sandbox.Gen2, ctx.launchSize())
		if err != nil {
			return worldRow{}, err
		}

		// Verification cost under broken fingerprints: the attacker falls
		// back to covert-channel work proportional to instances, not hosts.
		svc := dc.Account("account-1").DeployService("mit-verify", faas.ServiceConfig{})
		insts, err := svc.Launch(ctx.launchSize() / 4)
		if err != nil {
			return worldRow{}, err
		}
		items := make([]coloc.Item, len(insts))
		for i, inst := range insts {
			s, err := fingerprint.CollectGen1(inst.MustGuest())
			if err != nil {
				return worldRow{}, err
			}
			fp := fingerprint.Gen1FromSample(s, fingerprint.DefaultPrecision)
			items[i] = coloc.Item{Inst: inst, Fingerprint: fp.Key()}
		}
		tester := covert.NewTester(dc.Scheduler(), covert.DefaultConfig())
		ver, err := coloc.Verify(tester, items, coloc.DefaultOptions())
		if err != nil {
			return worldRow{}, err
		}
		svc.Disconnect()
		return worldRow{name: w.name, g1: g1, g2: g2, tests: ver.Tests}, nil
	})
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("Fingerprint accuracy with and without §6 mitigations",
		"world", "gen1 FMI", "gen1 recall", "gen2 FMI", "gen2 precision", "verify tests")
	for _, r := range rows {
		tbl.AddRow(r.name, r.g1.FMI, r.g1.Recall, r.g2.FMI, r.g2.Precision, r.tests)
		res.Metrics["gen1_fmi_"+r.name] = r.g1.FMI
		res.Metrics["gen1_recall_"+r.name] = r.g1.Recall
		res.Metrics["gen2_precision_"+r.name] = r.g2.Precision
		res.Metrics["verify_tests_"+r.name] = float64(r.tests)
	}
	res.Tables = append(res.Tables, tbl)

	// The scheduling defense §6 also cites: co-location-resistant (random)
	// placement. It dismantles the attack at the placement layer — and its
	// cost is visible as image-cold hosts on every launch.
	// Affinity vs random placement as two trials on the same fixed seed —
	// another controlled comparison, so the trial sub-seed is ignored.
	type schedRow struct{ coverage, coldFrac float64 }
	schedRows, err := runTrials(ctx, 2, func(t Trial) (schedRow, error) {
		defended := t.Index == 1
		profs := ctx.Profiles()
		if defended {
			for i := range profs {
				profs[i].Policy = faas.RandomUniformPolicy{}
			}
		}
		pl := forkPlatform(ctx.Seed+77, profs...)
		dc := pl.MustRegion(faas.USEast1)
		camp, err := ctx.attackerCampaign(dc, "account-1", attack.OptimizedStrategy{}, sandbox.Gen1)
		if err != nil {
			return schedRow{}, err
		}
		vicSvc, vic, err := coldVictim(dc, "account-2", "victim", faas.ServiceConfig{},
			ctx.defaultVictims(), 3)
		if err != nil {
			return schedRow{}, err
		}
		cov, _, err := camp.Verify(vic)
		if err != nil {
			return schedRow{}, err
		}
		return schedRow{cov.Fraction(), vicSvc.ColdHostFraction()}, nil
	})
	if err != nil {
		return nil, err
	}

	schedTbl := report.NewTable("Co-location-resistant scheduling",
		"world", "optimized-attack coverage", "cold-host fraction")
	for i, r := range schedRows {
		name, key := "affinity (baseline)", "baseline"
		if i == 1 {
			name, key = "random placement", "randomized"
		}
		schedTbl.AddRow(name, r.coverage, r.coldFrac)
		res.Metrics["sched_coverage_"+key] = r.coverage
		res.Metrics["sched_coldhosts_"+key] = r.coldFrac
	}
	res.Tables = append(res.Tables, schedTbl)

	// Timer-access overhead (§6): trapping rdtsc turns nanosecond reads into
	// ~microsecond kernel round trips; cost scales with an application's
	// timer-read rate. The four application classes are the ones §6 names.
	native := sandbox.NativeTimerReadCost.Seconds()
	emulated := sandbox.EmulatedTimerReadCost.Seconds()
	apps := []struct {
		name string
		rate float64 // timer reads per second per core
	}{
		{"real-time media/financial feed", 2e6},
		{"database concurrency control", 8e5},
		{"distributed synchronization", 2e5},
		{"intensive logging/journaling", 5e4},
	}
	otbl := report.NewTable("Timer-access overhead of trap-and-emulate (Gen 1)",
		"application class", "timer reads/s", "native CPU %", "emulated CPU %")
	for _, app := range apps {
		natPct := app.rate * native * 100
		emuPct := app.rate * emulated * 100
		otbl.AddRow(app.name, app.rate, natPct, emuPct)
	}
	res.Tables = append(res.Tables, otbl)
	res.Metrics["timer_overhead_factor"] = emulated / native

	res.note("mitigations break both fingerprints (Gen 1 recall → 0: every sandbox derives its own start time; Gen 2 precision → ~0: every host reports the nominal frequency) and force verification back toward pairwise cost")
	res.note("co-location-resistant random placement barely dents a high-volume FaaS attacker — thousands of cheap instances blanket the fleet no matter how they are scattered — while destroying every tenant's image locality (cold hosts on each launch) and the defender pays that cost fleet-wide; it does break placement *predictability* (base hosts, re-attack targeting)")
	res.note("trap-and-emulate multiplies timer-access cost by ~%.0fx; hardware TSC scaling (Gen 2) is free", emulated/native)
	return res, nil
}

func runExtraction(ctx Context) (*Result, error) {
	d, _ := ByID("extraction")
	res := newResult(d)
	pl := ctx.platform()
	dc := pl.MustRegion(faas.USEast1)

	camp, err := ctx.attackerCampaign(dc, "account-1", attack.OptimizedStrategy{}, sandbox.Gen1)
	if err != nil {
		return nil, err
	}
	vic, err := dc.Account("account-2").DeployService("login", faas.ServiceConfig{}).Launch(ctx.defaultVictims())
	if err != nil {
		return nil, err
	}
	cov, spies, err := camp.Verify(vic)
	if err != nil {
		return nil, err
	}
	res.Metrics["coverage"] = cov.Fraction()
	res.Metrics["spies"] = float64(len(spies))
	if len(spies) == 0 {
		res.note("no co-location achieved; extraction impossible (as expected without co-location)")
		return res, nil
	}

	// The victim's login routine leaks a 32-bit secret through its
	// execution pattern; a verified co-located spy recovers it, a
	// non-co-located attacker instance reads only noise.
	secret := make([]bool, 32)
	for i := range secret {
		secret[i] = (0xDEADBEEF>>uint(i))&1 == 1
	}
	schedule := extraction.Schedule{
		Start:      pl.Now().Add(time.Second),
		SlotLength: 100 * time.Millisecond,
		Bits:       secret,
	}

	// Find a victim instance on the spy's host (ground truth only selects
	// the demonstration pair; the spy itself was found via the covert
	// methodology above).
	spy := spies[0]
	spyHost, _ := spy.HostID()
	var target *faas.Instance
	var remote *faas.Instance
	for _, v := range vic {
		if id, _ := v.HostID(); id == spyHost {
			target = v
			break
		}
	}
	for _, a := range camp.Result().Live {
		if id, _ := a.HostID(); id != spyHost {
			remote = a
			break
		}
	}
	if target == nil || remote == nil {
		return nil, fmt.Errorf("extraction: could not stage demonstration pair")
	}
	target.SetWorkload(schedule.Activity())

	spyTrace, err := extraction.Monitor(pl.Scheduler(), spy, schedule, extraction.DefaultMonitorConfig())
	if err != nil {
		return nil, err
	}
	// Rerun the same secret for the remote observer.
	schedule2 := schedule
	schedule2.Start = pl.Now().Add(time.Second)
	target.SetWorkload(schedule2.Activity())
	remoteTrace, err := extraction.Monitor(pl.Scheduler(), remote, schedule2, extraction.DefaultMonitorConfig())
	if err != nil {
		return nil, err
	}

	coAcc := spyTrace.BitAccuracy(secret)
	remAcc := remoteTrace.BitAccuracy(secret)
	tbl := report.NewTable("Secret recovery through RNG contention (32-bit secret)",
		"observer", "bit accuracy", "samples")
	tbl.AddRow("co-located spy", coAcc, spyTrace.Samples)
	tbl.AddRow("non-co-located instance", remAcc, remoteTrace.Samples)
	res.Tables = append(res.Tables, tbl)
	res.Metrics["colocated_accuracy"] = coAcc
	res.Metrics["remote_accuracy"] = remAcc
	res.note("co-location is the enabling step: the verified co-located spy recovers the victim's secret-dependent execution pattern; a non-co-located instance learns nothing")
	return res, nil
}

func runReattack(ctx Context) (*Result, error) {
	d, _ := ByID("reattack")
	res := newResult(d)
	pl := ctx.platform()
	dc := pl.MustRegion(faas.USEast1)

	// First attack: full campaign, coverage, record victim hosts.
	camp, err := ctx.attackerCampaign(dc, "account-1", attack.OptimizedStrategy{}, sandbox.Gen1)
	if err != nil {
		return nil, err
	}
	vicSvc := dc.Account("account-2").DeployService("login", faas.ServiceConfig{})
	vic, err := vicSvc.Launch(ctx.defaultVictims())
	if err != nil {
		return nil, err
	}
	cov1, spies, err := camp.Verify(vic)
	if err != nil {
		return nil, err
	}
	book := attack.NewTargetBook(fingerprint.DefaultPrecision)
	if err := book.RecordVictimHosts(spies); err != nil {
		return nil, err
	}

	// A day later: everything is gone; the attacker re-runs the campaign
	// against the same victim and focuses monitoring on recorded hosts.
	vicSvc.Disconnect()
	dc.Scheduler().Advance(24 * time.Hour)
	camp2, err := ctx.attackerCampaign(dc, "account-1", attack.OptimizedStrategy{}, sandbox.Gen1)
	if err != nil {
		return nil, err
	}
	vic2, err := vicSvc.Launch(ctx.defaultVictims())
	if err != nil {
		return nil, err
	}
	focused, effort, err := book.Focus(camp2.Result().Live)
	if err != nil {
		return nil, err
	}
	covFull, _, err := camp2.Verify(vic2)
	if err != nil {
		return nil, err
	}
	covFocused := attack.Coverage{}
	if len(focused) > 0 {
		covFocused, _, err = attack.MeasureCoverage(camp2.Tester(), focused, vic2,
			attack.CoverageOpts{Precision: fingerprint.DefaultPrecision})
		if err != nil {
			return nil, err
		}
	}

	tbl := report.NewTable("Re-attack with fingerprint-guided targeting",
		"phase", "attacker instances", "victim coverage")
	tbl.AddRow("first attack (full footprint)", len(camp.Result().Live), cov1.Fraction())
	tbl.AddRow("re-attack, full footprint", len(camp2.Result().Live), covFull.Fraction())
	tbl.AddRow("re-attack, focused on recorded hosts", len(focused), covFocused.Fraction())
	res.Tables = append(res.Tables, tbl)
	res.Metrics["first_coverage"] = cov1.Fraction()
	res.Metrics["reattack_full_coverage"] = covFull.Fraction()
	res.Metrics["reattack_focused_coverage"] = covFocused.Fraction()
	res.Metrics["focus_effort"] = effort
	res.Metrics["recorded_hosts"] = float64(book.Size())
	res.note("recording victim host fingerprints in the first attack lets subsequent attacks monitor only a small fraction of instances (focus effort) while retaining most coverage — the §5.2 optimization")
	return res, nil
}
