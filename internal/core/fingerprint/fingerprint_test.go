package fingerprint

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"eaao/internal/faas"
	"eaao/internal/sandbox"
	"eaao/internal/simtime"
)

// testWorld builds a small data center and launches instances, returning
// the live instances plus the platform for time control.
func testWorld(t testing.TB, seed uint64, n int) (*faas.Platform, []*faas.Instance) {
	t.Helper()
	p := faas.USEast1Profile()
	p.Name = "t"
	p.NumHosts = 150
	p.PlacementGroups = 3
	p.BasePoolSize = 40
	p.AccountHelperPool = 60
	p.ServiceHelperSize = 45
	p.ServiceHelperFresh = 5
	pl := faas.MustPlatform(seed, p)
	svc := pl.MustRegion("t").Account("a").DeployService("s", faas.ServiceConfig{})
	insts, err := svc.Launch(n)
	if err != nil {
		t.Fatal(err)
	}
	return pl, insts
}

func TestGen1SameHostSameFingerprint(t *testing.T) {
	_, insts := testWorld(t, 1, 200)
	byHost := make(map[faas.HostID]map[Gen1]bool)
	for _, inst := range insts {
		s, err := CollectGen1(inst.MustGuest())
		if err != nil {
			t.Fatal(err)
		}
		fp := Gen1FromSample(s, DefaultPrecision)
		id, _ := inst.HostID()
		if byHost[id] == nil {
			byHost[id] = make(map[Gen1]bool)
		}
		byHost[id][fp] = true
	}
	// A host whose derived boot time sits exactly on a rounding boundary
	// can legitimately split across two buckets (the paper's rare false
	// negatives: 14 of 15 runs perfect). More than one such host, or a
	// split wider than adjacent buckets, is a bug.
	splits := 0
	for id, fps := range byHost {
		if len(fps) == 1 {
			continue
		}
		if len(fps) > 2 {
			t.Errorf("host %d produced %d distinct fingerprints", id, len(fps))
		}
		var buckets []int64
		for fp := range fps {
			buckets = append(buckets, fp.BootBucket)
		}
		if len(buckets) == 2 {
			d := buckets[0] - buckets[1]
			if d != 1 && d != -1 {
				t.Errorf("host %d fingerprints %d buckets apart", id, d)
			}
		}
		splits++
	}
	if splits > 1 {
		t.Errorf("%d hosts split fingerprints; expected at most one boundary case", splits)
	}
}

func TestGen1DifferentHostsDiffer(t *testing.T) {
	_, insts := testWorld(t, 2, 200)
	fpToHosts := make(map[Gen1]map[faas.HostID]bool)
	for _, inst := range insts {
		s, err := CollectGen1(inst.MustGuest())
		if err != nil {
			t.Fatal(err)
		}
		fp := Gen1FromSample(s, DefaultPrecision)
		id, _ := inst.HostID()
		if fpToHosts[fp] == nil {
			fpToHosts[fp] = make(map[faas.HostID]bool)
		}
		fpToHosts[fp][id] = true
	}
	collisions := 0
	for _, hosts := range fpToHosts {
		if len(hosts) > 1 {
			collisions++
		}
	}
	if collisions > 1 {
		t.Errorf("%d fingerprints span multiple hosts at 1 s precision", collisions)
	}
}

func TestGen1PrecisionInIdentity(t *testing.T) {
	s := Sample{Model: "M", TSC: 0, Wall: simtime.FromSeconds(1000), ReportedHz: 2e9}
	a := Gen1FromSample(s, time.Second)
	b := Gen1FromSample(s, 100*time.Millisecond)
	if a == b {
		t.Error("fingerprints of different precision compare equal")
	}
}

func TestGen1BootTimeAccuracy(t *testing.T) {
	// With 1 s rounding the derived boot bucket must sit within one bucket
	// of the true host boot time (drift is tiny right after boot sampling).
	_, insts := testWorld(t, 3, 50)
	for _, inst := range insts {
		s, err := CollectGen1(inst.MustGuest())
		if err != nil {
			t.Fatal(err)
		}
		fp := Gen1FromSample(s, time.Second)
		// True boot per ground truth: compare via derived seconds.
		derived := fp.BootTimeSeconds()
		raw := s.BootTimeReported()
		if math.Abs(derived-raw) > 0.5 {
			t.Errorf("bucket representative %v too far from raw %v", derived, raw)
		}
	}
}

// Property: rounding is stable under sub-precision perturbations most of the
// time, and never moves the bucket by more than one for perturbations under
// half a bucket.
func TestGen1RoundingStabilityProperty(t *testing.T) {
	f := func(bootMs int64, jitterRaw uint16) bool {
		boot := float64(bootMs%1e9) / 1000 // seconds
		jitter := (float64(jitterRaw%1000)/1000 - 0.5) * 0.4
		a := Gen1FromBootTime("M", boot, time.Second)
		b := Gen1FromBootTime("M", boot+jitter, time.Second)
		d := a.BootBucket - b.BootBucket
		return d >= -1 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGen1NonPositivePrecisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Gen1FromBootTime("M", 1, 0)
}

func TestGen2NoFalseNegatives(t *testing.T) {
	// Launch Gen 2 instances: co-located ones must always share the
	// fingerprint (refinement happens once per host boot).
	p := faas.USEast1Profile()
	p.Name = "t"
	p.NumHosts = 150
	p.PlacementGroups = 3
	p.BasePoolSize = 40
	p.AccountHelperPool = 60
	p.ServiceHelperSize = 45
	p.ServiceHelperFresh = 5
	pl := faas.MustPlatform(4, p)
	svc := pl.MustRegion("t").Account("a").DeployService("s", faas.ServiceConfig{Gen: sandbox.Gen2})
	insts, err := svc.Launch(200)
	if err != nil {
		t.Fatal(err)
	}
	byHost := make(map[faas.HostID]Gen2)
	for _, inst := range insts {
		fp, err := CollectGen2(inst.MustGuest())
		if err != nil {
			t.Fatal(err)
		}
		id, _ := inst.HostID()
		if prev, seen := byHost[id]; seen && prev != fp {
			t.Fatalf("host %d: Gen2 fingerprints differ: %v vs %v (false negative!)", id, prev, fp)
		}
		byHost[id] = fp
	}
}

func TestGen2FailsInGen1(t *testing.T) {
	_, insts := testWorld(t, 5, 1)
	if _, err := CollectGen2(insts[0].MustGuest()); err == nil {
		t.Error("CollectGen2 succeeded in a Gen1 sandbox")
	}
}

func TestMeasureFrequencyHealthyHost(t *testing.T) {
	pl, insts := testWorld(t, 6, 40)
	sched := pl.Scheduler()
	healthy := 0
	for _, inst := range insts {
		m, err := MeasureFrequency(inst.MustGuest(), sched, 100*time.Millisecond, 10)
		if err != nil {
			t.Fatal(err)
		}
		if m.Usable() {
			healthy++
			if m.StdHz > 5_000 {
				t.Errorf("usable measurement with std %v Hz", m.StdHz)
			}
		}
	}
	if healthy < 25 {
		t.Errorf("only %d/40 hosts had usable frequency measurements; expected ~90%%", healthy)
	}
	if healthy == 40 {
		t.Log("note: no problematic host sampled in this launch (possible)")
	}
}

func TestMeasuredFrequencyCloseToActual(t *testing.T) {
	pl, insts := testWorld(t, 7, 10)
	sched := pl.Scheduler()
	for _, inst := range insts {
		g := inst.MustGuest()
		m, err := MeasureFrequency(g, sched, 100*time.Millisecond, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Usable() {
			continue
		}
		reported, _ := g.ReportedTSCHz()
		// The measured value must be within ~100 kHz of the reported one
		// (ε is clipped at 50 kHz; measurement noise adds a little).
		if math.Abs(m.MeanHz-reported) > 2e5 {
			t.Errorf("measured %v vs reported %v: gap too large", m.MeanHz, reported)
		}
	}
}

func TestMeasureFrequencyArgumentErrors(t *testing.T) {
	pl, insts := testWorld(t, 8, 1)
	g := insts[0].MustGuest()
	if _, err := MeasureFrequency(g, pl.Scheduler(), 0, 10); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := MeasureFrequency(g, pl.Scheduler(), time.Millisecond, 0); err == nil {
		t.Error("zero reps accepted")
	}
}

func TestHistoryFitDrift(t *testing.T) {
	var h History
	rate := 2.5e-6 // seconds of boot drift per second
	base := 1000.0
	for i := 0; i < 24; i++ {
		at := simtime.FromSeconds(float64(i) * 3600)
		h.Add(at, base+rate*float64(i)*3600)
	}
	d, err := h.FitDrift()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Rate-rate)/rate > 1e-9 {
		t.Errorf("fitted rate %v, want %v", d.Rate, rate)
	}
	if math.Abs(d.R) < 0.9997 {
		t.Errorf("|r| = %v, want >= 0.9997 on noise-free drift", d.R)
	}
	if h.Span() != 23*time.Hour {
		t.Errorf("span = %v", h.Span())
	}
}

func TestHistoryTooShort(t *testing.T) {
	var h History
	h.Add(0, 1)
	h.Add(simtime.FromSeconds(1), 1)
	if _, err := h.FitDrift(); err == nil {
		t.Error("2-point history fitted")
	}
}

func TestExpirationPositiveDrift(t *testing.T) {
	// Boot time at bucket center, drifting up at 1e-5 s/s with p=1s:
	// distance to the +0.5 boundary is 0.5 s → 50,000 s.
	d := Drift{Rate: 1e-5, LastWhenSec: 0, LastBootSec: 100.0}
	exp, ok := d.Expiration(time.Second)
	if !ok {
		t.Fatal("no expiration for drifting fingerprint")
	}
	want := 50_000 * time.Second
	if exp < want-time.Second || exp > want+time.Second {
		t.Errorf("expiration = %v, want ~%v", exp, want)
	}
}

func TestExpirationNegativeDrift(t *testing.T) {
	d := Drift{Rate: -1e-5, LastBootSec: 100.25}
	exp, ok := d.Expiration(time.Second)
	if !ok {
		t.Fatal("no expiration")
	}
	// Distance down to 99.5 is 0.75 s → 75,000 s.
	want := 75_000 * time.Second
	if exp < want-time.Second || exp > want+time.Second {
		t.Errorf("expiration = %v, want ~%v", exp, want)
	}
}

func TestExpirationFlat(t *testing.T) {
	d := Drift{Rate: 0, LastBootSec: 100}
	if _, ok := d.Expiration(time.Second); ok {
		t.Error("flat drift expired")
	}
}

// Property: expiration is always positive and shrinks as |rate| grows.
func TestExpirationMonotoneProperty(t *testing.T) {
	f := func(rateRaw uint16, bootRaw uint32) bool {
		rate := (float64(rateRaw) + 1) * 1e-9
		boot := float64(bootRaw) / 1000
		d1 := Drift{Rate: rate, LastBootSec: boot}
		d2 := Drift{Rate: rate * 2, LastBootSec: boot}
		e1, ok1 := d1.Expiration(time.Second)
		e2, ok2 := d2.Expiration(time.Second)
		if !ok1 || !ok2 {
			return false
		}
		return e1 >= 0 && e2 >= 0 && e2 <= e1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// End-to-end: track a real simulated host for days; the measured drift and
// expiration must match the host's ground-truth ε.
func TestDriftMatchesGroundTruth(t *testing.T) {
	pl, insts := testWorld(t, 9, 1)
	inst := insts[0]
	g := inst.MustGuest()
	sched := pl.Scheduler()
	var h History
	for i := 0; i < 48; i++ {
		s, err := CollectGen1(g)
		if err != nil {
			t.Fatal(err)
		}
		h.Add(pl.Now(), s.BootTimeReported())
		sched.Advance(time.Hour)
	}
	d, err := h.FitDrift()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.R) < 0.999 {
		t.Errorf("|r| = %v; drift not linear", d.R)
	}
	// Rate must be nonzero (ε is never zero) and below the clip bound.
	if d.Rate == 0 {
		t.Error("zero fitted drift")
	}
	if math.Abs(d.Rate) > 5.1e4/2e9*1.5 {
		t.Errorf("fitted rate %v beyond ε clip", d.Rate)
	}
}

func TestStringRenderings(t *testing.T) {
	fp := Gen1FromBootTime("Intel(R) Xeon(R) CPU @ 2.00GHz", 1000, time.Second)
	if fp.String() == "" {
		t.Error("empty Gen1 string")
	}
	g2 := Gen2{Model: "M", FreqKHz: 2000001}
	if g2.String() == "" {
		t.Error("empty Gen2 string")
	}
}

func BenchmarkCollectGen1(b *testing.B) {
	_, insts := testWorld(b, 1, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CollectGen1(insts[i%len(insts)].MustGuest()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollectGen2(b *testing.B) {
	pl, _ := testWorld(b, 1, 1)
	insts, err := pl.MustRegion("t").Account("b").
		DeployService("g2", faas.ServiceConfig{Gen: sandbox.Gen2}).Launch(100)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CollectGen2(insts[i%len(insts)].MustGuest()); err != nil {
			b.Fatal(err)
		}
	}
}
