// Package sandbox models what an unprivileged program can observe from inside
// a FaaS container, in the two Cloud Run execution environments (§2.3):
//
//   - Gen 1 (gVisor): a non-virtualized Linux container. gVisor emulates
//     system calls and hides /proc, the host IP, and uptime — but rdtsc,
//     rdtscp, and cpuid execute directly on host hardware, so the guest sees
//     the raw host TSC and the host CPU brand string.
//   - Gen 2 (lightweight VM): hardware virtualization applies TSC offsetting,
//     so the guest TSC reads as zero at *VM* boot and the host boot time is
//     hidden. However, the guest kernel is a full Linux with root access, and
//     KVM exports the host's boot-time-refined TSC frequency (1 kHz
//     precision) to the guest for timekeeping — which leaks a per-host value.
//
// A Guest is the only handle attack code gets: it can read the TSC, make a
// (noisy) wall-clock system call, read the CPU model name, and — in Gen 2 —
// read the guest kernel's TSC frequency. Everything the core library does is
// built from these primitives, mirroring the real attacker's position.
package sandbox

import (
	"errors"
	"time"

	"eaao/internal/cpu"
	"eaao/internal/randx"
	"eaao/internal/simtime"
	"eaao/internal/tsc"
)

// Gen identifies the execution environment generation.
type Gen int

const (
	// Gen1 is the gVisor Linux-container environment (Cloud Run default).
	Gen1 Gen = 1
	// Gen2 is the lightweight-VM environment with TSC offsetting.
	Gen2 Gen = 2
)

// String returns "gen1" or "gen2".
func (g Gen) String() string {
	switch g {
	case Gen1:
		return "gen1"
	case Gen2:
		return "gen2"
	default:
		return "gen?"
	}
}

// ErrNotVirtualized is returned when a Gen 2-only facility is used in Gen 1.
var ErrNotVirtualized = errors.New("sandbox: guest kernel TSC frequency is only readable in the Gen 2 (VM) environment")

// ErrProbeFault is returned when a measurement probe fails for a transient
// host-side reason (the platform's fault plane). Probing again later may
// succeed; robust attack tooling matches it with errors.Is and retries.
var ErrProbeFault = errors.New("sandbox: measurement probe failed")

// HostEnv is the host-side state a sandbox mediates access to. The faas
// simulator's Host implements it.
type HostEnv interface {
	// Now returns the current virtual time (the host's true clock).
	Now() simtime.Time
	// Counter returns the host's timestamp counter.
	Counter() tsc.Counter
	// Noise returns the wall-clock measurement noise profile of this host.
	Noise() tsc.NoiseProfile
	// Model returns the host CPU model.
	Model() cpu.Model
	// RefinedTSCHz returns the host kernel's boot-time-refined TSC
	// frequency in Hz, already rounded to the kernel's 1 kHz precision.
	RefinedTSCHz() float64
	// NoiseRNG returns the random stream used for guest measurement noise.
	NoiseRNG() *randx.Source
	// Mitigations returns the TSC-masking defenses active on this host.
	Mitigations() Mitigations
	// ProbeFault reports whether a measurement probe taken at this instant
	// fails transiently (the platform's fault plane). Implementations must
	// return false — and consume no randomness — when fault injection is
	// off.
	ProbeFault() bool
}

// Guest is a sandboxed program's view of its host.
type Guest struct {
	env HostEnv
	gen Gen
	// tscOffset is subtracted from host TSC reads in Gen 2 (TSC offsetting
	// makes the counter appear to start at zero when the VM booted).
	tscOffset uint64
	// clockOffset is this sandbox's constant wall-clock offset from the
	// host's NTP-disciplined time (time-virtualization artifact; zero for
	// most guests). Constant per guest: it cancels in frequency deltas but
	// shifts derived boot times.
	clockOffset time.Duration
	// emuEpoch is the base instant of the kernel's *emulated* counter under
	// the trap-and-emulate mitigation: the moment the container's emulation
	// context initialized. Container startup is staggered by scheduling and
	// image-pull latency, so epochs differ across co-located instances —
	// which is exactly why the emulated counter carries no host signal.
	emuEpoch simtime.Time
}

// NewGuest creates the guest view for a container started now on the given
// host. For Gen 2, the hypervisor records the host TSC at VM boot and offsets
// all guest reads by it.
func NewGuest(env HostEnv, gen Gen) *Guest {
	g := &Guest{}
	InitGuest(g, env, gen)
	return g
}

// InitGuest is NewGuest initializing g in place, for callers that embed the
// Guest inside a larger allocation (faas embeds one per instance — instance
// creation is the simulator's hottest allocation site). Draw order matches
// NewGuest exactly.
func InitGuest(g *Guest, env HostEnv, gen Gen) {
	*g = Guest{
		env:         env,
		gen:         gen,
		clockOffset: env.Noise().SampleGuestOffset(env.NoiseRNG()),
	}
	startupLag := time.Duration(env.NoiseRNG().Range(0, float64(10*time.Second)))
	g.emuEpoch = env.Now().Add(-startupLag)
	if gen == Gen2 {
		g.tscOffset = env.Counter().ReadAt(env.Now())
	}
}

// CloneInto copies g's observable state into dst, swapping the host
// environment handle for env — the world-snapshot path, where dst belongs to
// a cloned instance resident on the cloned counterpart of g's host. Offsets
// and epochs carry over, so the clone's future reads are byte-identical to
// the original's.
func (g *Guest) CloneInto(dst *Guest, env HostEnv) {
	*dst = *g
	dst.env = env
}

// RunsOn reports whether env is the host environment the guest reads —
// ground truth for the platform's own consistency checks, which attack code
// has no host handle to ask with.
func (g *Guest) RunsOn(env HostEnv) bool { return g.env == env }

// Gen returns the execution environment generation.
func (g *Guest) Gen() Gen { return g.gen }

// ProbeFault reports whether a measurement probe attempted right now fails
// transiently. Fingerprint collectors consult it once per probe; callers
// that see ErrProbeFault may retry — failures are transient, not a property
// of the host.
func (g *Guest) ProbeFault() bool { return g.env.ProbeFault() }

// CPUModelName returns the brand string as read through cpuid. Both
// environments expose it: gVisor does not intercept cpuid, and the Gen 2
// hypervisor passes the (anonymized) host model through.
func (g *Guest) CPUModelName() string { return g.env.Model().Name }

// ReadTSC executes rdtsc. In Gen 1 this is the raw host counter; in Gen 2
// the hardware subtracts the VM-boot offset. Under the §6 mitigations the
// returned counter is sandbox-relative and ticks at exactly the nominal
// frequency, leaking neither the host boot time nor the frequency error.
func (g *Guest) ReadTSC() uint64 {
	m := g.env.Mitigations()
	if (g.gen == Gen1 && m.TrapAndEmulateTSC) || (g.gen == Gen2 && m.TSCScaling) {
		elapsed := g.env.Now().Sub(g.emuEpoch)
		return virtualTicks(uint64(elapsed), uint64(g.env.Model().BaseHz+0.5))
	}
	v := g.env.Counter().ReadAt(g.env.Now())
	return v - g.tscOffset
}

// virtualTicks converts elapsed nanoseconds to ticks at hz without overflow.
func virtualTicks(ns, hz uint64) uint64 {
	secs := ns / 1e9
	rem := ns % 1e9
	return secs*hz + rem*hz/1e9
}

// TimerReadCost returns the per-read latency of TSC access in this sandbox
// under the host's mitigations.
func (g *Guest) TimerReadCost() time.Duration {
	return g.env.Mitigations().TimerReadCost(g.gen)
}

// ReadWall performs a wall-clock system call (e.g. clock_gettime with
// CLOCK_REALTIME). The result is the host's NTP-disciplined true time, plus
// this sandbox's constant clock offset, plus a non-negative per-read jitter
// drawn from the host's noise profile.
func (g *Guest) ReadWall() simtime.Time {
	j := g.env.Noise().WallJitter(g.env.NoiseRNG())
	return g.env.Now().Add(g.clockOffset + j)
}

// ReadTSCAndWall models the back-to-back rdtsc; clock_gettime() sequence used
// to pair a counter value with a real-world timestamp (§4.2). The TSC is read
// first; the wall-clock value lands later by the syscall delay.
func (g *Guest) ReadTSCAndWall() (tscValue uint64, wall simtime.Time) {
	return g.ReadTSC(), g.ReadWall()
}

// GuestKernelTSCHz returns the TSC frequency the guest kernel uses for
// timekeeping. In Gen 2 the attacker has root in the VM and simply reads the
// value KVM exported — the host's refined frequency at 1 kHz precision. In
// Gen 1 the sandboxed container can only talk to gVisor, which does not
// expose it. With hardware TSC scaling enabled the guest counter is rescaled
// to nominal, so the exported frequency is the nominal one and carries no
// per-host signal.
func (g *Guest) GuestKernelTSCHz() (float64, error) {
	if g.gen != Gen2 {
		return 0, ErrNotVirtualized
	}
	if g.env.Mitigations().TSCScaling {
		nominal := g.env.Model().BaseHz
		return float64(int64(nominal/1000)) * 1000, nil
	}
	return g.env.RefinedTSCHz(), nil
}
