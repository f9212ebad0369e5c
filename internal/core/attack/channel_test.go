package attack

import (
	"reflect"
	"strings"
	"testing"

	"eaao/internal/core/covert"
	"eaao/internal/faas"
	"eaao/internal/sandbox"
)

func TestConfigValidatesChannel(t *testing.T) {
	for _, name := range []string{"", "rng", "llc", "membus", "combined"} {
		cfg := DefaultConfig()
		cfg.Channel = name
		if err := cfg.Validate(); err != nil {
			t.Errorf("channel %q rejected: %v", name, err)
		}
	}
	cfg := DefaultConfig()
	cfg.Channel = "hyperlane"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown channel validated")
	}
	if _, err := NewCampaign(smallWorld(t, 50).Account("a"), cfg, sandbox.Gen1, NaiveStrategy{}); err == nil {
		t.Error("campaign accepted an unknown channel")
	}
}

// runChannelCampaign launches a small campaign on the named channel and
// verifies it against a victim set, returning the final ledger.
func runChannelCampaign(t *testing.T, seed uint64, channel string) CampaignStats {
	t.Helper()
	dc := smallWorld(t, seed)
	cfg := smallCfg()
	cfg.Channel = channel
	c, err := NewCampaign(dc.Account("attacker"), cfg, sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch(); err != nil {
		t.Fatal(err)
	}
	vic, err := dc.Account("victim").DeployService("v", faas.ServiceConfig{}).Launch(40)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Verify(vic); err != nil {
		t.Fatal(err)
	}
	return c.Stats()
}

func TestCampaignChannelLedger(t *testing.T) {
	// A single-channel campaign carries exactly one per-channel entry whose
	// counters equal the aggregates, and its ledger renders without a split.
	st := runChannelCampaign(t, 51, "llc")
	if len(st.PerChannel) != 1 {
		t.Fatalf("PerChannel = %+v, want one llc entry", st.PerChannel)
	}
	cc := st.PerChannel[0]
	if cc.Channel != "llc" {
		t.Errorf("channel label = %q", cc.Channel)
	}
	if cc.CTests != st.CTests || cc.CovertTime != st.CovertTime || cc.ReVotes != st.ReVotes {
		t.Errorf("single-channel entry %+v diverges from aggregates %d/%v/%d",
			cc, st.CTests, st.CovertTime, st.ReVotes)
	}
	if strings.Contains(st.String(), "llc:") {
		t.Error("single-channel ledger rendered a per-channel split")
	}

	// The combined campaign splits across all three members, the split sums
	// to the aggregate, and the rendering shows it.
	st = runChannelCampaign(t, 51, "combined")
	if len(st.PerChannel) != 3 {
		t.Fatalf("combined PerChannel = %+v, want three entries", st.PerChannel)
	}
	sumTests, sumTime := 0, st.CovertTime-st.CovertTime
	seen := map[string]bool{}
	for _, cc := range st.PerChannel {
		seen[cc.Channel] = true
		sumTests += cc.CTests
		sumTime += cc.CovertTime
	}
	if !seen["rng"] || !seen["llc"] || !seen["membus"] {
		t.Errorf("channel labels = %v", seen)
	}
	// The combined tester reports each member execution to the sink, so the
	// split partitions the aggregate exactly.
	if sumTests != st.CTests {
		t.Errorf("split CTests %d, aggregate %d", sumTests, st.CTests)
	}
	if st.CTests%3 != 0 {
		t.Errorf("combined CTests %d not a multiple of its three members", st.CTests)
	}
	if sumTime != st.CovertTime {
		t.Errorf("split time %v, aggregate %v", sumTime, st.CovertTime)
	}
	for _, label := range []string{"rng:", "llc:", "membus:"} {
		if !strings.Contains(st.String(), label) {
			t.Errorf("combined ledger missing %q:\n%s", label, st.String())
		}
	}

	// Stats() hands out an independent copy of the split.
	dc := smallWorld(t, 52)
	c, err := NewCampaign(dc.Account("attacker"), smallCfg(), sandbox.Gen1, NaiveStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch(); err != nil {
		t.Fatal(err)
	}
	vic, err := dc.Account("victim").DeployService("v", faas.ServiceConfig{}).Launch(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Verify(vic); err != nil {
		t.Fatal(err)
	}
	snap := c.Stats()
	if len(snap.PerChannel) != 1 || snap.PerChannel[0].Channel != "rng" {
		t.Fatalf("default campaign PerChannel = %+v", snap.PerChannel)
	}
	before := snap.PerChannel[0].CTests
	snap.PerChannel[0].CTests = -1
	if got := c.Stats().PerChannel[0].CTests; got != before {
		t.Error("Stats() shares its PerChannel slice with the ledger")
	}
}

// The default-channel campaign must be byte-identical to one driven by an
// explicitly installed RNG tester — the pre-channel construction path.
func TestCampaignDefaultChannelIdentity(t *testing.T) {
	run := func(install bool) (Coverage, CampaignStats) {
		dc := smallWorld(t, 53)
		c, err := NewCampaign(dc.Account("attacker"), smallCfg(), sandbox.Gen1, OptimizedStrategy{})
		if err != nil {
			t.Fatal(err)
		}
		if install {
			c.SetTester(covert.NewTester(dc.Scheduler(), covert.DefaultConfig()))
		}
		if _, err := c.Launch(); err != nil {
			t.Fatal(err)
		}
		vic, err := dc.Account("victim").DeployService("v", faas.ServiceConfig{}).Launch(40)
		if err != nil {
			t.Fatal(err)
		}
		cov, _, err := c.Verify(vic)
		if err != nil {
			t.Fatal(err)
		}
		return cov, c.Stats()
	}
	covA, stA := run(false)
	covB, stB := run(true)
	if covA != covB {
		t.Errorf("coverage diverged: %+v vs %+v", covA, covB)
	}
	stA.PerChannel, stB.PerChannel = nil, nil
	if !reflect.DeepEqual(stA, stB) {
		t.Errorf("ledgers diverged:\n  default  %+v\n  explicit %+v", stA, stB)
	}
}

// NewCampaign builds the covert runner, so a fresh campaign's Tester is
// ready before Launch and charges every CTest to the ledger; SetTester
// still replaces it.
func TestFreshCampaignTesterChargesLedger(t *testing.T) {
	dc := smallWorld(t, 54)
	c, err := NewCampaign(dc.Account("attacker"), smallCfg(), sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	r := c.Tester()
	if r == nil {
		t.Fatal("fresh campaign has no tester")
	}
	insts, err := dc.Account("a").DeployService("s", faas.ServiceConfig{}).Launch(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CTest(insts, 2); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.CTests != 1 || len(st.PerChannel) != 1 || st.PerChannel[0].CTests != 1 {
		t.Errorf("one CTest charged as %d (per channel %+v)", st.CTests, st.PerChannel)
	}
	other := covert.NewTester(dc.Scheduler(), covert.DefaultConfig())
	if c.SetTester(other); c.Tester() != other {
		t.Error("SetTester did not replace the runner")
	}
}

func TestFleetTotalsMergeChannels(t *testing.T) {
	f := FleetStats{
		Strategy: "optimized",
		Shards: []CampaignStats{
			{CTests: 4, PerChannel: []ChannelCost{{Channel: "rng", CTests: 3}, {Channel: "llc", CTests: 1}}},
			{CTests: 5, PerChannel: []ChannelCost{{Channel: "llc", CTests: 2, ReVotes: 1}, {Channel: "membus", CTests: 3}}},
		},
	}
	tot := f.Totals()
	if tot.CTests != 9 {
		t.Errorf("total CTests = %d", tot.CTests)
	}
	want := map[string]int{"rng": 3, "llc": 3, "membus": 3}
	if len(tot.PerChannel) != len(want) {
		t.Fatalf("merged PerChannel = %+v", tot.PerChannel)
	}
	for _, cc := range tot.PerChannel {
		if cc.CTests != want[cc.Channel] {
			t.Errorf("merged %s = %d CTests, want %d", cc.Channel, cc.CTests, want[cc.Channel])
		}
		if cc.Channel == "llc" && cc.ReVotes != 1 {
			t.Errorf("merged llc re-votes = %d", cc.ReVotes)
		}
	}
}
