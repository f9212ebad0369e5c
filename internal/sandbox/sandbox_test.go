package sandbox

import (
	"math"
	"testing"
	"time"

	"eaao/internal/cpu"
	"eaao/internal/randx"
	"eaao/internal/simtime"
	"eaao/internal/tsc"
)

// fakeEnv is a minimal HostEnv for testing the guest views.
type fakeEnv struct {
	now        simtime.Time
	counter    tsc.Counter
	noise      tsc.NoiseProfile
	model      cpu.Model
	refined    float64
	rng        *randx.Source
	mits       Mitigations
	probeFault bool
}

func (f *fakeEnv) Now() simtime.Time        { return f.now }
func (f *fakeEnv) Counter() tsc.Counter     { return f.counter }
func (f *fakeEnv) Noise() tsc.NoiseProfile  { return f.noise }
func (f *fakeEnv) Model() cpu.Model         { return f.model }
func (f *fakeEnv) RefinedTSCHz() float64    { return f.refined }
func (f *fakeEnv) NoiseRNG() *randx.Source  { return f.rng }
func (f *fakeEnv) Mitigations() Mitigations { return f.mits }
func (f *fakeEnv) ProbeFault() bool         { return f.probeFault }

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		now: simtime.FromSeconds(10000),
		counter: tsc.Counter{
			Boot:       simtime.FromSeconds(1000),
			ActualHz:   2_000_005_000,
			ReportedHz: 2e9,
		},
		noise:   tsc.NoiseProfile{}, // zero noise by default
		model:   cpu.Catalog[0],
		refined: 2_000_005_000,
		rng:     randx.New(9),
	}
}

func TestGen1SeesRawHostTSC(t *testing.T) {
	env := newFakeEnv()
	g := NewGuest(env, Gen1)
	want := env.counter.ReadAt(env.now)
	if got := g.ReadTSC(); got != want {
		t.Errorf("Gen1 TSC = %d, want raw host value %d", got, want)
	}
}

func TestGen2TSCOffsetting(t *testing.T) {
	env := newFakeEnv()
	g := NewGuest(env, Gen2)
	if got := g.ReadTSC(); got != 0 {
		t.Errorf("Gen2 TSC at VM boot = %d, want 0", got)
	}
	env.now = env.now.Add(time.Second)
	got := g.ReadTSC()
	if got != 2_000_005_000 {
		t.Errorf("Gen2 TSC after 1s = %d, want 2000005000 (host rate preserved)", got)
	}
}

func TestGen2RateMatchesHost(t *testing.T) {
	// TSC offsetting hides the value but not the rate: the guest can still
	// observe the host's actual frequency (§4.5).
	env := newFakeEnv()
	g1 := NewGuest(env, Gen1)
	g2 := NewGuest(env, Gen2)
	a1, a2 := g1.ReadTSC(), g2.ReadTSC()
	env.now = env.now.Add(5 * time.Second)
	b1, b2 := g1.ReadTSC(), g2.ReadTSC()
	if b1-a1 != b2-a2 {
		t.Errorf("tick deltas differ: gen1 %d, gen2 %d", b1-a1, b2-a2)
	}
}

func TestGuestKernelTSCHzOnlyGen2(t *testing.T) {
	env := newFakeEnv()
	if _, err := NewGuest(env, Gen1).GuestKernelTSCHz(); err == nil {
		t.Error("Gen1 guest read the kernel TSC frequency")
	}
	hz, err := NewGuest(env, Gen2).GuestKernelTSCHz()
	if err != nil {
		t.Fatal(err)
	}
	if hz != env.refined {
		t.Errorf("Gen2 kernel freq = %v, want %v", hz, env.refined)
	}
}

func TestReadWallNoiseBounded(t *testing.T) {
	env := newFakeEnv()
	env.noise = tsc.DefaultNoise()
	g := NewGuest(env, Gen1)
	// Per-guest offset is constant: consecutive reads must stay within the
	// tiny per-read jitter of each other.
	first := g.ReadWall()
	for i := 0; i < 5000; i++ {
		w := g.ReadWall()
		if d := w.Sub(first); d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("wall reads unstable: drifted %v between reads", d)
		}
	}
	// And the offset itself is bounded by a few ms.
	if d := first.Sub(env.now); d < -5*time.Millisecond || d > 5*time.Millisecond {
		t.Fatalf("guest clock offset %v implausibly large", d)
	}
}

func TestGuestOffsetsVaryAcrossGuests(t *testing.T) {
	env := newFakeEnv()
	env.noise = tsc.DefaultNoise()
	distinct := make(map[simtime.Time]bool)
	for i := 0; i < 50; i++ {
		g := NewGuest(env, Gen1)
		distinct[g.ReadWall()] = true
	}
	if len(distinct) < 2 {
		t.Error("all guests read identical wall clocks; offsets not applied")
	}
}

func TestReadWallZeroNoiseExact(t *testing.T) {
	env := newFakeEnv()
	g := NewGuest(env, Gen1)
	if w := g.ReadWall(); w != env.now {
		t.Errorf("noise-free wall read = %v, want %v", w, env.now)
	}
}

// TestReportedTSCHz checks method 1 of §4.2 from the guest's side: the
// brand string cpuid returns parses to the host model's base frequency.
func TestReportedTSCHz(t *testing.T) {
	env := newFakeEnv()
	g := NewGuest(env, Gen1)
	hz, err := cpu.ParseBaseFrequency(g.CPUModelName())
	if err != nil {
		t.Fatal(err)
	}
	if hz != env.model.BaseHz {
		t.Errorf("reported = %v, want %v", hz, env.model.BaseHz)
	}
}

func TestDerivedBootTimeGen1(t *testing.T) {
	// End-to-end Eq. 4.1 with a noise-free environment: T_boot = T_w - tsc/f.
	// Using the *reported* frequency on a host with ε≠0 after 9000 s of
	// uptime gives a small known error: drift = uptime · (-ε')/f_r where the
	// counter runs fast by 5 kHz.
	env := newFakeEnv()
	g := NewGuest(env, Gen1)
	tscVal, wall := g.ReadTSCAndWall()
	hz, _ := cpu.ParseBaseFrequency(g.CPUModelName())
	derived := wall.Seconds() - float64(tscVal)/hz
	trueBoot := env.counter.Boot.Seconds()
	uptime := env.now.Sub(env.counter.Boot).Seconds()
	wantErr := uptime * env.counter.DriftRate()
	if math.Abs((derived-trueBoot)-wantErr) > 1e-6 {
		t.Errorf("derived boot error = %v, want %v", derived-trueBoot, wantErr)
	}
}

func TestGenString(t *testing.T) {
	if Gen1.String() != "gen1" || Gen2.String() != "gen2" || Gen(3).String() != "gen?" {
		t.Error("Gen.String wrong")
	}
}

func TestTrapAndEmulateHidesHostTSC(t *testing.T) {
	env := newFakeEnv()
	env.mits = Mitigations{TrapAndEmulateTSC: true}
	g := NewGuest(env, Gen1)
	first := g.ReadTSC()
	// The emulated counter is container-relative: far smaller than the
	// host's (9000 s of uptime), bounded by the ~10 s startup lag window.
	if first > uint64(11*env.model.BaseHz) {
		t.Errorf("emulated counter %d exposes host-scale uptime", first)
	}
	env.now = env.now.Add(time.Second)
	got := g.ReadTSC()
	// Nominal frequency (2.0 GHz for the catalog head), NOT the host's
	// actual frequency: the frequency error must not leak either.
	want := uint64(env.model.BaseHz)
	if got-first != want {
		t.Errorf("emulated tick rate = %d, want %d (nominal)", got-first, want)
	}
	if g.TimerReadCost() != EmulatedTimerReadCost {
		t.Errorf("timer cost = %v, want emulated", g.TimerReadCost())
	}
}

func TestEmulatedEpochsDifferAcrossGuests(t *testing.T) {
	// Two sandboxes on the same host must derive different emulated
	// counters (staggered startup), so boot-time fingerprinting on the
	// emulated counter identifies sandboxes, not hosts.
	env := newFakeEnv()
	env.mits = Mitigations{TrapAndEmulateTSC: true}
	distinct := make(map[uint64]bool)
	for i := 0; i < 20; i++ {
		distinct[NewGuest(env, Gen1).ReadTSC()] = true
	}
	if len(distinct) < 15 {
		t.Errorf("only %d distinct emulated counters across 20 sandboxes", len(distinct))
	}
}

func TestTrapAndEmulateDoesNotAffectGen2(t *testing.T) {
	env := newFakeEnv()
	env.mits = Mitigations{TrapAndEmulateTSC: true}
	g := NewGuest(env, Gen2)
	env.now = env.now.Add(time.Second)
	if got := g.ReadTSC(); got != 2_000_005_000 {
		t.Errorf("Gen2 counter under a Gen1-only mitigation = %d, want host rate", got)
	}
	if g.TimerReadCost() != NativeTimerReadCost {
		t.Error("Gen2 should keep native timer cost")
	}
}

func TestTSCScalingHidesRefinedFrequency(t *testing.T) {
	env := newFakeEnv()
	env.mits = Mitigations{TSCScaling: true}
	g := NewGuest(env, Gen2)
	hz, err := g.GuestKernelTSCHz()
	if err != nil {
		t.Fatal(err)
	}
	if hz != env.model.BaseHz {
		t.Errorf("scaled kernel freq = %v, want nominal %v", hz, env.model.BaseHz)
	}
	// Scaled counter ticks at nominal.
	a := g.ReadTSC()
	env.now = env.now.Add(time.Second)
	b := g.ReadTSC()
	if b-a != uint64(env.model.BaseHz) {
		t.Errorf("scaled tick rate = %d, want nominal", b-a)
	}
	// Hardware-assisted: no overhead.
	if g.TimerReadCost() != NativeTimerReadCost {
		t.Error("scaling should be free")
	}
}
