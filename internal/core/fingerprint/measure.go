package fingerprint

import (
	"fmt"
	"time"

	"eaao/internal/sandbox"
	"eaao/internal/simtime"
	"eaao/internal/stats"
)

// FreqMeasurement is the outcome of measuring the actual TSC frequency from
// inside a guest (method 2 of §4.2): read the TSC twice ΔT_w apart, where
// ΔT_w comes from wall-clock system calls, and divide.
type FreqMeasurement struct {
	// MeanHz is the mean measured frequency across repetitions.
	MeanHz float64
	// StdHz is the standard deviation across repetitions. On healthy hosts
	// it is well under 100 Hz; on "problematic" hosts it reaches 10 kHz–MHz,
	// making the method unusable there.
	StdHz float64
	// Samples are the individual per-repetition estimates.
	Samples []float64
}

// Usable reports whether the measurement is stable enough to fingerprint
// with, using the paper's implied threshold: problematic hosts show standard
// deviations of at least 10 kHz.
func (m FreqMeasurement) Usable() bool { return m.StdHz < 10e3 }

// MeasureFrequency estimates the actual TSC frequency by reading the counter
// twice with the given wall-clock interval between reads, repeated reps
// times. It advances the virtual clock by approximately reps × interval —
// exactly like the real measurement costs wall time.
//
// The interval must be positive; the paper uses ΔT_w ≈ 100 ms with about 10
// repetitions.
func MeasureFrequency(g *sandbox.Guest, sched *simtime.Scheduler, interval time.Duration, reps int) (FreqMeasurement, error) {
	if interval <= 0 {
		return FreqMeasurement{}, fmt.Errorf("fingerprint: non-positive measurement interval")
	}
	if reps <= 0 {
		return FreqMeasurement{}, fmt.Errorf("fingerprint: non-positive repetition count")
	}
	samples := make([]float64, 0, reps)
	faultScale := 1.001
	for i := 0; i < reps; i++ {
		faulted := g.ProbeFault()
		tsc1, wall1 := g.ReadTSCAndWall()
		sched.Advance(interval)
		tsc2, wall2 := g.ReadTSCAndWall()
		dw := wall2.Sub(wall1).Seconds()
		if dw <= 0 {
			// Noise collapsed the interval; skip the sample.
			continue
		}
		est := float64(tsc2-tsc1) / dw
		if faulted {
			// A faulted repetition yields a wrong estimate (the read pair
			// straddled a descheduling). The error is megahertz-scale on
			// real frequencies and grows per faulted repetition, so any
			// faulted measurement's StdHz blows past the usability
			// threshold — the fault is detectable across repetitions,
			// never silently classifiable.
			est *= faultScale
			faultScale += 0.001
		}
		samples = append(samples, est)
	}
	if len(samples) == 0 {
		return FreqMeasurement{}, fmt.Errorf("fingerprint: all frequency samples degenerate")
	}
	return FreqMeasurement{
		MeanHz:  stats.Mean(samples),
		StdHz:   stats.StdDev(samples),
		Samples: samples,
	}, nil
}

// BootTimeMeasured derives the boot time using a measured frequency instead
// of the reported one: drift-free where the measurement is usable.
func BootTimeMeasured(s Sample, m FreqMeasurement) float64 {
	return s.BootTimeSeconds(m.MeanHz)
}
