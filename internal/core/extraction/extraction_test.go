package extraction

import (
	"testing"
	"testing/quick"
	"time"

	"eaao/internal/faas"
	"eaao/internal/simtime"
)

func testWorld(t *testing.T, seed uint64) (*faas.Platform, *faas.DataCenter) {
	t.Helper()
	p := faas.USEast1Profile()
	p.Name = "t"
	p.NumHosts = 120
	p.PlacementGroups = 3
	p.BasePoolSize = 30
	p.AccountHelperPool = 60
	p.ServiceHelperSize = 45
	p.ServiceHelperFresh = 5
	pl := faas.MustPlatform(seed, p)
	return pl, pl.MustRegion("t")
}

// colocatedPair finds a victim instance and an attacker instance that truly
// share a host, plus an attacker instance on a different host.
func colocatedPair(t *testing.T, dc *faas.DataCenter) (victim, spy, remote *faas.Instance) {
	t.Helper()
	vic, err := dc.Account("victim").DeployService("v", faas.ServiceConfig{}).Launch(60)
	if err != nil {
		t.Fatal(err)
	}
	// Same account → same base hosts → guaranteed overlap.
	atk, err := dc.Account("victim").DeployService("spyware", faas.ServiceConfig{}).Launch(60)
	if err != nil {
		t.Fatal(err)
	}
	vicHosts := make(map[faas.HostID]*faas.Instance)
	for _, inst := range vic {
		id, _ := inst.HostID()
		if _, ok := vicHosts[id]; !ok {
			vicHosts[id] = inst
		}
	}
	for _, inst := range atk {
		id, _ := inst.HostID()
		if v, ok := vicHosts[id]; ok && spy == nil {
			victim, spy = v, inst
		}
	}
	for _, inst := range atk {
		id, _ := inst.HostID()
		vid, _ := victim.HostID()
		if id != vid {
			remote = inst
			break
		}
	}
	if victim == nil || spy == nil || remote == nil {
		t.Fatal("could not build co-located/remote triple")
	}
	return victim, spy, remote
}

func secretBits() []bool {
	// 16-bit secret: 1011001110001011.
	pattern := "1011001110001011"
	bits := make([]bool, len(pattern))
	for i, c := range pattern {
		bits[i] = c == '1'
	}
	return bits
}

func TestScheduleActivity(t *testing.T) {
	s := Schedule{Start: simtime.FromSeconds(10), SlotLength: time.Second, Bits: []bool{true, false, true}}
	active := s.Activity()
	cases := []struct {
		at   float64
		want bool
	}{
		{9.5, false}, {10.1, true}, {11.5, false}, {12.5, true}, {13.5, false},
	}
	for _, c := range cases {
		if got := active(simtime.FromSeconds(c.at)); got != c.want {
			t.Errorf("Activity at %vs = %v, want %v", c.at, got, c.want)
		}
	}
	if s.End() != simtime.FromSeconds(13) {
		t.Errorf("End = %v", s.End())
	}
}

func TestColocatedSpyRecoversSecret(t *testing.T) {
	pl, dc := testWorld(t, 1)
	victim, spy, _ := colocatedPair(t, dc)

	bits := secretBits()
	sched := Schedule{
		Start:      pl.Now().Add(time.Second),
		SlotLength: 100 * time.Millisecond,
		Bits:       bits,
	}
	victim.SetWorkload(sched.Activity())

	trace, err := Monitor(pl.Scheduler(), spy, sched, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if acc := trace.BitAccuracy(bits); acc < 0.99 {
		t.Errorf("co-located spy recovered only %.0f%% of the secret", acc*100)
	}
	if trace.Samples != len(bits)*DefaultMonitorConfig().SamplesPerSlot {
		t.Errorf("samples = %d", trace.Samples)
	}
}

func TestRemoteSpyLearnsNothing(t *testing.T) {
	pl, dc := testWorld(t, 2)
	victim, _, remote := colocatedPair(t, dc)

	bits := secretBits()
	sched := Schedule{
		Start:      pl.Now().Add(time.Second),
		SlotLength: 100 * time.Millisecond,
		Bits:       bits,
	}
	victim.SetWorkload(sched.Activity())

	trace, err := Monitor(pl.Scheduler(), remote, sched, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A non-co-located monitor reads only background noise: it should
	// recover all-zeros, matching the secret only on its zero bits.
	for i, b := range trace.Bits {
		if b {
			t.Errorf("remote spy read a 1 in slot %d (no shared host!)", i)
		}
	}
}

func TestMonitorConfigValidation(t *testing.T) {
	pl, dc := testWorld(t, 3)
	_, spy, _ := colocatedPair(t, dc)
	s := Schedule{Start: pl.Now().Add(time.Second), SlotLength: time.Second, Bits: []bool{true}}
	bad := []MonitorConfig{
		{SamplesPerSlot: 0, VoteThreshold: 1},
		{SamplesPerSlot: 4, VoteThreshold: 0},
		{SamplesPerSlot: 4, VoteThreshold: 5},
	}
	for i, cfg := range bad {
		if _, err := Monitor(pl.Scheduler(), spy, s, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := Monitor(pl.Scheduler(), spy, Schedule{Start: pl.Now(), SlotLength: time.Second}, DefaultMonitorConfig()); err == nil {
		t.Error("empty schedule accepted")
	}
}

func TestBitAccuracy(t *testing.T) {
	tr := Trace{Bits: []bool{true, false, true, true}}
	if a := tr.BitAccuracy([]bool{true, false, false, true}); a != 0.75 {
		t.Errorf("accuracy = %v", a)
	}
	if a := tr.BitAccuracy(nil); a != 0 {
		t.Errorf("empty truth accuracy = %v", a)
	}
	short := Trace{Bits: []bool{true}}
	if a := short.BitAccuracy([]bool{true, true}); a != 0.5 {
		t.Errorf("short trace accuracy = %v", a)
	}
}

// Property: a co-located spy recovers arbitrary secrets of any length.
func TestExtractionProperty(t *testing.T) {
	pl, dc := testWorld(t, 4)
	victim, spy, _ := colocatedPair(t, dc)
	f := func(raw uint16, lenRaw uint8) bool {
		n := int(lenRaw%12) + 4
		bits := make([]bool, n)
		for i := range bits {
			bits[i] = raw&(1<<uint(i%16)) != 0
		}
		sched := Schedule{
			Start:      pl.Now().Add(100 * time.Millisecond),
			SlotLength: 50 * time.Millisecond,
			Bits:       bits,
		}
		victim.SetWorkload(sched.Activity())
		trace, err := Monitor(pl.Scheduler(), spy, sched, DefaultMonitorConfig())
		if err != nil {
			return false
		}
		return trace.BitAccuracy(bits) >= 0.99
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
