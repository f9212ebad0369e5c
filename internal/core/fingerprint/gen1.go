// Package fingerprint implements the paper's two physical-host
// fingerprinting techniques (§4):
//
//   - Gen 1 (gVisor containers): the host's CPU model plus its boot time,
//     derived from the raw TSC via Eq. 4.1 (T_boot = T_w − tsc/f) and rounded
//     to a precision p_boot. The TSC frequency f is either the *reported*
//     labeled base frequency (method 1: robust but drifts, so fingerprints
//     expire) or a *measured* frequency (method 2: drift-free but unusable on
//     ~10% of hosts with disturbed timekeeping).
//   - Gen 2 (VMs with TSC offsetting): the boot time is hidden, but the
//     kernel-refined actual host TSC frequency (1 kHz precision) leaks
//     through the guest kernel and identifies hosts — coarsely, but with no
//     false negatives.
//
// The package also tracks fingerprint histories over time to estimate drift
// and expiration (§4.4.2).
package fingerprint

import (
	"fmt"
	"math"
	"time"

	"eaao/internal/cpu"
	"eaao/internal/sandbox"
	"eaao/internal/simtime"
)

// DefaultPrecision is the paper's default rounding precision p_boot = 1 s,
// the upper end of the 100 ms–1 s sweet spot (it maximizes fingerprint
// lifetime at equal accuracy).
const DefaultPrecision = time.Second

// Sample is one raw Gen 1 measurement: a TSC value paired with the wall
// clock time it was taken at, plus the host identity hints read via cpuid.
type Sample struct {
	// Model is the CPU brand string.
	Model string
	// TSC is the counter value read via rdtsc.
	TSC uint64
	// Wall is the (noisy) wall-clock timestamp paired with the read.
	Wall simtime.Time
	// ReportedHz is the TSC frequency inferred from the model name.
	ReportedHz float64
}

// CollectGen1 takes one Gen 1 measurement from inside a guest. It works in
// Gen 2 as well, but the boot time it leads to is the VM's, not the host's —
// use Gen 2 fingerprints there instead.
func CollectGen1(g *sandbox.Guest) (Sample, error) {
	if g.ProbeFault() {
		return Sample{}, fmt.Errorf("fingerprint: gen1 collection: %w", sandbox.ErrProbeFault)
	}
	// Method 1 of §4.2: the labeled base frequency in the brand string.
	model := g.CPUModelName()
	hz, err := cpu.ParseBaseFrequency(model)
	if err != nil {
		return Sample{}, fmt.Errorf("fingerprint: no reported frequency: %w", err)
	}
	tsc, wall := g.ReadTSCAndWall()
	return Sample{
		Model:      model,
		TSC:        tsc,
		Wall:       wall,
		ReportedHz: hz,
	}, nil
}

// BootTimeSeconds derives the host boot time via Eq. 4.1 using the given TSC
// frequency, in seconds since the simulation epoch.
func (s Sample) BootTimeSeconds(freqHz float64) float64 {
	return s.Wall.Seconds() - float64(s.TSC)/freqHz
}

// BootTimeReported derives the boot time with the reported frequency
// (method 1 of §4.2).
func (s Sample) BootTimeReported() float64 { return s.BootTimeSeconds(s.ReportedHz) }

// Gen1 is a Gen 1 host fingerprint: the CPU model plus the derived boot time
// rounded to a precision bucket. Two fingerprints are comparable only when
// taken with the same precision; equality of the struct is fingerprint match.
type Gen1 struct {
	Model string
	// BootBucket is round(T_boot / p_boot): the quantized boot time.
	BootBucket int64
	// PrecisionNs is p_boot in nanoseconds, kept in the identity so that
	// fingerprints of different precisions never collide.
	PrecisionNs int64
}

// Gen1FromSample quantizes a sample into a fingerprint at the given
// precision. It panics if precision is not positive.
func Gen1FromSample(s Sample, precision time.Duration) Gen1 {
	return Gen1FromBootTime(s.Model, s.BootTimeReported(), precision)
}

// Gen1FromBootTime builds a fingerprint from an already-derived boot time in
// seconds since epoch (e.g. one computed with a measured frequency).
func Gen1FromBootTime(model string, bootSeconds float64, precision time.Duration) Gen1 {
	if precision <= 0 {
		panic("fingerprint: non-positive precision")
	}
	p := precision.Seconds()
	return Gen1{
		Model:       model,
		BootBucket:  int64(math.Round(bootSeconds / p)),
		PrecisionNs: int64(precision),
	}
}

// BootTimeSeconds returns the bucket's representative boot time.
func (f Gen1) BootTimeSeconds() float64 {
	return float64(f.BootBucket) * time.Duration(f.PrecisionNs).Seconds()
}

// String renders the fingerprint for logs and reports.
func (f Gen1) String() string {
	return fmt.Sprintf("gen1{%s, boot=%s, p=%s}",
		f.Model,
		simtime.FromSeconds(f.BootTimeSeconds()).Real().Format(time.RFC3339),
		time.Duration(f.PrecisionNs))
}
