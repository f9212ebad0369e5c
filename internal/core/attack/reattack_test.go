package attack

import (
	"testing"
	"time"

	"eaao/internal/core/covert"
	"eaao/internal/core/fingerprint"
	"eaao/internal/faas"
	"eaao/internal/sandbox"
)

func TestTargetBookFocusReducesEffort(t *testing.T) {
	dc := smallWorld(t, 30)
	cfg := smallCfg()

	// First attack: campaign, coverage, record hosts shared with the victim.
	camp, err := launchCampaign(dc.Account("attacker"), cfg, sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	vic, err := dc.Account("victim").DeployService("login", faas.ServiceConfig{}).Launch(50)
	if err != nil {
		t.Fatal(err)
	}

	// Identify co-located attacker instances via ground truth (the covert
	// verification path is exercised by the coverage tests; here we focus
	// on the book's mechanics).
	vicHosts := make(map[faas.HostID]bool)
	for _, inst := range vic {
		id, _ := inst.HostID()
		vicHosts[id] = true
	}
	var colocated []*faas.Instance
	for _, inst := range camp.Live {
		if id, _ := inst.HostID(); vicHosts[id] {
			colocated = append(colocated, inst)
		}
	}
	if len(colocated) == 0 {
		t.Fatal("no co-location in this world; cannot test re-attack")
	}

	book := NewTargetBook(cfg.Precision)
	if err := book.RecordVictimHosts(colocated); err != nil {
		t.Fatal(err)
	}
	if book.Size() == 0 {
		t.Fatal("book recorded nothing")
	}

	// Re-attack the next day: the focused instance set must (a) be a small
	// fraction of the full footprint and (b) still cover the victim's base
	// hosts that persist.
	dc.Scheduler().Advance(24 * time.Hour)
	camp2, err := launchCampaign(dc.Account("attacker"), cfg, sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	focused, effort, err := book.Focus(camp2.Live)
	if err != nil {
		t.Fatal(err)
	}
	if effort <= 0 || effort >= 0.5 {
		t.Errorf("focus effort = %.3f, want a small but nonzero fraction", effort)
	}
	// Every focused instance must really sit on a recorded victim host.
	misses := 0
	for _, inst := range focused {
		if id, _ := inst.HostID(); !vicHosts[id] {
			misses++
		}
	}
	if frac := float64(misses) / float64(len(focused)); frac > 0.2 {
		t.Errorf("%.0f%% of focused instances are on non-victim hosts", frac*100)
	}
}

func TestTargetBookDriftTolerantMatch(t *testing.T) {
	book := NewTargetBook(time.Second)
	fp := fingerprint.Gen1{Model: "M", BootBucket: 1000, PrecisionNs: int64(time.Second)}
	book.hosts[fp] = true

	adj := fp
	adj.BootBucket = 1001
	if !book.Matches(adj) {
		t.Error("adjacent bucket (drift across one boundary) did not match")
	}
	far := fp
	far.BootBucket = 1002
	if book.Matches(far) {
		t.Error("two-bucket drift matched; too permissive")
	}
	other := fp
	other.Model = "other"
	if book.Matches(other) {
		t.Error("different CPU model matched")
	}
}

func TestTargetBookEmptyFocus(t *testing.T) {
	dc := smallWorld(t, 31)
	insts, err := dc.Account("a").DeployService("s", faas.ServiceConfig{}).Launch(20)
	if err != nil {
		t.Fatal(err)
	}
	book := NewTargetBook(time.Second)
	focused, effort, err := book.Focus(insts)
	if err != nil {
		t.Fatal(err)
	}
	if len(focused) != 0 || effort != 0 {
		t.Errorf("empty book focused %d instances (effort %v)", len(focused), effort)
	}
	// Fully terminated attacker set.
	dc.Account("a").DeployService("s", faas.ServiceConfig{}).TerminateAll()
	if _, effort, err := book.Focus(insts); err != nil || effort != 0 {
		t.Errorf("terminated set: effort=%v err=%v", effort, err)
	}
}

// The focused set must still suffice for extraction-grade coverage of
// recurring victims: re-verify co-location of focused instances only.
func TestFocusedSetStillCoversVictim(t *testing.T) {
	dc := smallWorld(t, 32)
	cfg := smallCfg()
	camp, err := launchCampaign(dc.Account("attacker"), cfg, sandbox.Gen1, OptimizedStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	vic, err := dc.Account("victim").DeployService("login", faas.ServiceConfig{}).Launch(50)
	if err != nil {
		t.Fatal(err)
	}
	tester := covert.NewTester(dc.Scheduler(), covert.DefaultConfig())
	cov, _, err := MeasureCoverage(tester, camp.Live, vic, CoverageOpts{Precision: cfg.Precision})
	if err != nil {
		t.Fatal(err)
	}
	if !cov.AtLeastOne {
		t.Skip("no co-location in this world")
	}
	vicHosts := make(map[faas.HostID]bool)
	for _, inst := range vic {
		id, _ := inst.HostID()
		vicHosts[id] = true
	}
	var colocated []*faas.Instance
	for _, inst := range camp.Live {
		if id, _ := inst.HostID(); vicHosts[id] {
			colocated = append(colocated, inst)
		}
	}
	book := NewTargetBook(cfg.Precision)
	if err := book.RecordVictimHosts(colocated); err != nil {
		t.Fatal(err)
	}
	// Victim relaunches (same base hosts); focused attacker instances alone
	// must still reach most of the victim.
	vic2 := dc.Account("victim").DeployService("login", faas.ServiceConfig{}).ActiveInstances()
	focused, _, err := book.Focus(camp.Live)
	if err != nil {
		t.Fatal(err)
	}
	cov2, _, err := MeasureCoverage(tester, focused, vic2, CoverageOpts{Precision: cfg.Precision})
	if err != nil {
		t.Fatal(err)
	}
	if float64(cov2.VictimCovered) < float64(cov.VictimCovered)*0.8 {
		t.Errorf("focused set covers %d victims, full set covered %d",
			cov2.VictimCovered, cov.VictimCovered)
	}
}
