package attack

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"eaao/internal/faas"
	"eaao/internal/sandbox"
)

// fleetWorld builds n small distinct-size regions, each its own world, all
// from one seed — the shape FleetCampaign coordinates across. tweak, if
// given, adjusts region i's profile before its world is built.
func fleetWorld(t *testing.T, seed uint64, n int, tweak ...func(i int, p *faas.RegionProfile)) *faas.Fleet {
	t.Helper()
	sizes := []struct {
		hosts, groups, base, acctPool, svcPool, fresh int
	}{
		{200, 4, 40, 90, 70, 8},
		{80, 2, 30, 40, 30, 3},
		{320, 4, 60, 150, 110, 12},
	}
	var profs []faas.RegionProfile
	for i := 0; i < n; i++ {
		s := sizes[i%len(sizes)]
		p := faas.USEast1Profile()
		p.Name = faas.Region([]string{"r-east", "r-west", "r-central"}[i%3])
		p.NumHosts = s.hosts
		p.PlacementGroups = s.groups
		p.BasePoolSize = s.base
		p.AccountHelperPool = s.acctPool
		p.ServiceHelperSize = s.svcPool
		p.ServiceHelperFresh = s.fresh
		for _, f := range tweak {
			f(i, &p)
		}
		profs = append(profs, p)
	}
	f, err := faas.NewFleet(seed, profs...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFleetOneShardMatchesLegacyCampaign is the refactor's core identity:
// for every built-in strategy, a one-shard fleet campaign (paced rounds,
// planner-driven stop rule) reproduces the legacy single-region Campaign
// byte for byte — launch records with timestamps, live-instance identities,
// footprint, and the entire stats ledger.
func TestFleetOneShardMatchesLegacyCampaign(t *testing.T) {
	for _, strat := range Strategies() {
		t.Run(strat.Name(), func(t *testing.T) {
			cfg := smallCfg()

			legacyC, err := NewCampaign(smallWorld(t, 42).Account("attacker"), cfg, sandbox.Gen1, strat)
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := legacyC.Launch()
			if err != nil {
				t.Fatal(err)
			}

			fleet, err := faas.FleetOf(smallWorld(t, 42))
			if err != nil {
				t.Fatal(err)
			}
			fc, err := NewFleetCampaign(fleet, "attacker", cfg, sandbox.Gen1, strat, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := fc.Launch(); err != nil {
				t.Fatal(err)
			}
			shards := fc.Shards()
			if len(shards) != 1 || shards[0] == nil {
				t.Fatal("fleet lost its shard campaign")
			}
			shard := shards[0]

			assertSameCampaign(t, legacy, shard.Result())
			if got, want := shard.Stats(), legacyC.Stats(); !reflect.DeepEqual(got, want) {
				t.Errorf("stats ledgers diverge:\nfleet:  %+v\nlegacy: %+v", got, want)
			}
		})
	}
}

// TestFleetJobsByteIdentical: the worker bound changes wall-clock only. A
// three-region campaign under every strategy produces identical records and
// ledgers for one worker and for more workers than shards.
func TestFleetJobsByteIdentical(t *testing.T) {
	for _, strat := range Strategies() {
		run := func(jobs int) *FleetCampaign {
			fc, err := NewFleetCampaign(fleetWorld(t, 42, 3), "attacker", smallCfg(), sandbox.Gen1, strat, nil)
			if err != nil {
				t.Fatal(err)
			}
			fc.SetJobs(jobs)
			if err := fc.Launch(); err != nil {
				t.Fatal(err)
			}
			return fc
		}
		seq, par := run(1), run(8)
		if !reflect.DeepEqual(seq.Stats(), par.Stats()) {
			t.Errorf("%s: fleet stats diverge across jobs:\njobs=1: %+v\njobs=8: %+v",
				strat.Name(), seq.Stats(), par.Stats())
		}
		for i, sc := range seq.Shards() {
			pc := par.Shards()[i]
			assertSameCampaign(t, sc.Result(), pc.Result())
		}
	}
}

// TestFleetShardFailureStopsAtRoundBoundary: when one shard's launch fails
// mid-fleet, every other shard finishes the round in flight, is denied the
// next one, and keeps that round's waves as its resident footprint; Launch
// surfaces the failing shard's error. The outcome is the same for any worker
// count, and a later Verify reports only its own errors.
func TestFleetShardFailureStopsAtRoundBoundary(t *testing.T) {
	cfg := smallCfg()
	run := func(jobs int) *FleetCampaign {
		fleet := fleetWorld(t, 42, 3, func(i int, p *faas.RegionProfile) {
			if i == 1 {
				p.Faults.LaunchFailureRate = 0.3
			}
		})
		fc, err := NewFleetCampaign(fleet, "attacker", cfg, sandbox.Gen1, OptimizedStrategy{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fc.SetJobs(jobs)
		if err := fc.Launch(); !errors.Is(err, faas.ErrLaunchFault) {
			t.Fatalf("jobs=%d: Launch error = %v, want a launch fault", jobs, err)
		}
		return fc
	}
	seq, par := run(1), run(8)
	for _, i := range []int{0, 2} {
		st := seq.Shards()[i].Stats()
		if st.Waves != cfg.Services || st.LiveInstances != cfg.Services*cfg.InstancesPerLaunch {
			t.Errorf("shard %d: %d waves, %d live; want one full round (%d waves, %d live)",
				i, st.Waves, st.LiveInstances, cfg.Services, cfg.Services*cfg.InstancesPerLaunch)
		}
	}
	if got, want := seq.RoundsUsed(), 3; got != want || seq.Budget() != 3*cfg.Launches {
		t.Errorf("rounds used %d of %d, want %d of %d", got, seq.Budget(), want, 3*cfg.Launches)
	}
	if !reflect.DeepEqual(seq.Stats(), par.Stats()) {
		t.Errorf("fleet stats diverge across jobs:\njobs=1: %+v\njobs=8: %+v", seq.Stats(), par.Stats())
	}
	if _, err := seq.Verify(nil); err != nil {
		t.Errorf("Verify with no victims failed: %v", err)
	}
}

// numericFields flattens the numeric fields of a struct (recursing into
// nested structs) into path → value.
func numericFields(v reflect.Value, prefix string, out map[string]float64) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			out[name] = float64(f.Int())
		case reflect.Float64:
			out[name] = f.Float()
		case reflect.Struct:
			numericFields(f, name+".", out)
		}
	}
}

// fillNumeric sets every numeric field of a struct (recursing into nested
// structs) to consecutive values from *next.
func fillNumeric(v reflect.Value, next *int) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(*next))
			*next++
		case reflect.Float64:
			f.SetFloat(float64(*next))
			*next++
		case reflect.Struct:
			fillNumeric(f, next)
		}
	}
}

// TestFleetMergesAddEveryField: every numeric Coverage field adds up under
// MergeCoverages, and every numeric CampaignStats field under
// FleetStats.Totals except LaunchWall, the slowest shard's. A field added to
// either struct without its merge line fails here.
func TestFleetMergesAddEveryField(t *testing.T) {
	check := func(what string, parts []reflect.Value, merged reflect.Value, maxOf map[string]bool) {
		t.Helper()
		got := map[string]float64{}
		numericFields(merged, "", got)
		want := map[string]float64{}
		for _, p := range parts {
			fields := map[string]float64{}
			numericFields(p, "", fields)
			for name, v := range fields {
				if maxOf[name] {
					want[name] = max(want[name], v)
				} else {
					want[name] += v
				}
			}
		}
		for name, w := range want {
			if got[name] != w {
				t.Errorf("%s: %s = %v, want %v", what, name, got[name], w)
			}
		}
	}

	next := 1
	var covs [2]Coverage
	for i := range covs {
		fillNumeric(reflect.ValueOf(&covs[i]).Elem(), &next)
	}
	check("MergeCoverages", []reflect.Value{reflect.ValueOf(covs[0]), reflect.ValueOf(covs[1])},
		reflect.ValueOf(MergeCoverages(covs[:]...)), nil)

	var fs FleetStats
	for i := 0; i < 2; i++ {
		var st CampaignStats
		fillNumeric(reflect.ValueOf(&st).Elem(), &next)
		st.Region = faas.Region(fmt.Sprint("r", i))
		fs.Shards = append(fs.Shards, st)
	}
	check("FleetStats.Totals", []reflect.Value{reflect.ValueOf(fs.Shards[0]), reflect.ValueOf(fs.Shards[1])},
		reflect.ValueOf(fs.Totals()), map[string]bool{"LaunchWall": true})
}

// TestCrossRegionPlannerDrainsZeroYield: a shard whose rounds stop growing
// the footprint loses all further budget, and the freed rounds flow to the
// shards still yielding (which may then exceed their even share).
func TestCrossRegionPlannerDrainsZeroYield(t *testing.T) {
	p := CrossRegionPlanner{}
	launches := 4
	status := []ShardStatus{
		{Region: "grow", Rounds: 1, Before: 0, Grown: 50, Cumulative: 50, FirstRound: 50},
		{Region: "dry", Rounds: 1, Before: 0, Grown: 40, Cumulative: 40, FirstRound: 40},
	}
	budget := len(status) * launches
	remaining := budget - len(status)
	rounds := []int{1, 1}
	for remaining > 0 {
		grants := p.Plan(status, remaining)
		any := false
		for i, g := range grants {
			if !g || remaining <= 0 {
				continue
			}
			remaining--
			rounds[i]++
			any = true
			status[i].Rounds = rounds[i]
			status[i].Before = status[i].Cumulative
			if i == 0 {
				status[i].Grown = 30 // keeps yielding
			} else {
				status[i].Grown = 0 // saturated after round 2
			}
			status[i].Cumulative += status[i].Grown
		}
		if !any {
			break
		}
	}
	if rounds[1] != 2 {
		t.Errorf("dry shard ran %d rounds, want 2 (round 1 + the round that revealed saturation)", rounds[1])
	}
	if rounds[0] <= launches {
		t.Errorf("yielding shard ran %d rounds, want > %d (the dry shard's released budget)", rounds[0], launches)
	}
	if got := rounds[0] + rounds[1]; got > budget {
		t.Errorf("planner overspent: %d rounds of %d budget", got, budget)
	}
}

// TestStaticEvenPlanner pins the baseline: every shard gets exactly its even
// share regardless of yield, and a finished shard gets nothing.
func TestStaticEvenPlanner(t *testing.T) {
	p := StaticEvenPlanner{}
	status := []ShardStatus{
		{Region: "a", Rounds: 2, Grown: 100},
		{Region: "b", Rounds: 2, Grown: 0},
		{Region: "c", Rounds: 3, Finished: true},
	}
	// 12-round budget, 7 rounds spent, 5 remaining → targets 4/4/4.
	grants := p.Plan(status, 5)
	if !grants[0] || !grants[1] || grants[2] {
		t.Errorf("static-even grants = %v, want [true true false]", grants)
	}
	// 11 of the 12 rounds now spent: both unfinished shards sit at their
	// even share of 4, so the last round stays unspent.
	status[0].Rounds, status[1].Rounds = 4, 4
	grants = p.Plan(status, 1)
	if grants[0] || grants[1] {
		t.Errorf("shards past their even share still granted: %v", grants)
	}
}

// TestProportionalPlanner: the budget splits by first-round yield with every
// shard keeping at least its first round.
func TestProportionalPlanner(t *testing.T) {
	p := ProportionalPlanner{}
	status := []ShardStatus{
		{Region: "big", Rounds: 1, FirstRound: 60, Grown: 60},
		{Region: "small", Rounds: 1, FirstRound: 20, Grown: 20},
		{Region: "zero", Rounds: 1, FirstRound: 0, Grown: 0},
	}
	// Budget 9: 1 each guaranteed + 6 spare split 60:20:0 → targets 5/3/1...
	// spare×(60/80)=4.5→4 rem .5, spare×(20/80)=1.5→1 rem .5, leftover 1 to
	// the lower index. Targets: 6/2/1.
	budget := 9
	rounds := []int{1, 1, 1}
	remaining := budget - 3
	for remaining > 0 {
		grants := p.Plan(status, remaining)
		any := false
		for i, g := range grants {
			if g && remaining > 0 {
				remaining--
				rounds[i]++
				status[i].Rounds = rounds[i]
				any = true
			}
		}
		if !any {
			break
		}
	}
	if want := []int{6, 2, 1}; !reflect.DeepEqual(rounds, want) {
		t.Errorf("proportional rounds = %v, want %v", rounds, want)
	}
}

// TestFleetAdaptiveDrainsSaturatedRegion runs the drain end to end: in a
// two-region fleet where the small region saturates immediately, the
// adaptive planner cuts it off after the round that revealed saturation
// while static-even keeps paying for all of its rounds — so adaptive
// finishes strictly cheaper at an equal-or-better footprint-per-dollar.
func TestFleetAdaptiveDrainsSaturatedRegion(t *testing.T) {
	cfg := smallCfg()
	cfg.Launches = 6
	run := func(planner Planner) FleetStats {
		fc, err := NewFleetCampaign(fleetWorld(t, 42, 2), "attacker", cfg, sandbox.Gen1, OptimizedStrategy{}, planner)
		if err != nil {
			t.Fatal(err)
		}
		fc.SetJobs(1)
		if err := fc.Launch(); err != nil {
			t.Fatal(err)
		}
		return fc.Stats()
	}
	// At this scale the small region's round-4 marginal yield (~17%) falls
	// under a 20% floor while the large region (~27%) stays funded one more
	// round — the asymmetry the planner exists to exploit.
	static := run(StaticEvenPlanner{})
	adaptive := run(CrossRegionPlanner{MinYield: 0.2})

	if static.RoundsUsed != static.Budget {
		t.Errorf("static-even used %d of %d rounds, want the whole budget", static.RoundsUsed, static.Budget)
	}
	if adaptive.RoundsUsed >= static.RoundsUsed {
		t.Errorf("adaptive used %d rounds, static %d — no budget was reclaimed", adaptive.RoundsUsed, static.RoundsUsed)
	}
	small := adaptive.Shards[1]
	if got, max := small.Waves/cfg.Services, cfg.Launches; got >= max {
		t.Errorf("saturated region ran %d rounds, want fewer than %d", got, max)
	}
	if au, su := adaptive.Totals().USD, static.Totals().USD; au >= su {
		t.Errorf("adaptive cost $%.2f, static $%.2f — draining saved nothing", au, su)
	}
}

func TestFleetCampaignMisuse(t *testing.T) {
	fleet := fleetWorld(t, 7, 2)
	if _, err := NewFleetCampaign(nil, "a", smallCfg(), sandbox.Gen1, OptimizedStrategy{}, nil); err == nil {
		t.Error("nil fleet accepted")
	}
	if _, err := NewFleetCampaign(fleet, "a", smallCfg(), sandbox.Gen1, nil, nil); err == nil {
		t.Error("nil strategy accepted")
	}
	bad := smallCfg()
	bad.Services = 0
	if _, err := NewFleetCampaign(fleet, "a", bad, sandbox.Gen1, OptimizedStrategy{}, nil); err == nil {
		t.Error("invalid config accepted")
	}
	fc, err := NewFleetCampaign(fleet, "a", smallCfg(), sandbox.Gen1, OptimizedStrategy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Verify(nil); err == nil {
		t.Error("Verify before Launch accepted")
	}
	if err := fc.Launch(); err != nil {
		t.Fatal(err)
	}
	if err := fc.Launch(); err == nil {
		t.Error("double Launch accepted")
	}
}

func TestPlannerByName(t *testing.T) {
	for _, p := range Planners() {
		got, err := PlannerByName(p.Name())
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != p.Name() {
			t.Errorf("PlannerByName(%q).Name() = %q", p.Name(), got.Name())
		}
	}
	if _, err := PlannerByName("nope"); err == nil {
		t.Error("unknown planner resolved")
	}
}
