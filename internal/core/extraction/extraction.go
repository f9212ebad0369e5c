// Package extraction demonstrates step 2 of the threat model (§3): once the
// attacker is co-located with a victim instance, it can detect when the
// victim's program executes by monitoring contention on a shared hardware
// resource, and recover secret-dependent execution patterns.
//
// The demonstrator follows the structure of prior extraction work the paper
// builds on [25, 41, 54, 59, 68]: the victim's sensitive routine encodes a
// secret in its execution timing (here, literally: one bit per time slot —
// run or don't run, the simplest secret-dependent control flow). The
// co-located attacker samples host contention each slot and reconstructs the
// bit string. Against a non-co-located attacker the same monitor reads only
// background noise, which is the point: co-location is the step that makes
// extraction possible at all.
package extraction

import (
	"fmt"
	"time"

	"eaao/internal/faas"
	"eaao/internal/simtime"
)

// Schedule describes a victim that executes secret-dependent work: during
// slot i (each SlotLength long, starting at Start), the victim's routine
// runs if and only if Bits[i] is set.
type Schedule struct {
	Start      simtime.Time
	SlotLength time.Duration
	Bits       []bool
}

// Activity returns the workload predicate implementing the schedule, for
// Instance.SetWorkload.
func (s Schedule) Activity() func(simtime.Time) bool {
	return func(now simtime.Time) bool {
		if now.Before(s.Start) {
			return false
		}
		slot := int(now.Sub(s.Start) / s.SlotLength)
		return slot < len(s.Bits) && s.Bits[slot]
	}
}

// End returns the instant the schedule finishes.
func (s Schedule) End() simtime.Time {
	return s.Start.Add(time.Duration(len(s.Bits)) * s.SlotLength)
}

// MonitorConfig tunes the attacker's contention monitor.
type MonitorConfig struct {
	// SamplesPerSlot is how many contention probes are taken per slot.
	SamplesPerSlot int
	// VoteThreshold is how many positive probes make a slot read as 1.
	// With background activity under 1% per probe, a majority vote over a
	// handful of samples suppresses noise completely.
	VoteThreshold int
}

// DefaultMonitorConfig samples 8 times per slot and requires 4 positives.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{SamplesPerSlot: 8, VoteThreshold: 4}
}

// Trace is the attacker's reconstruction of the victim's activity.
type Trace struct {
	// Bits is the recovered bit string, one per slot.
	Bits []bool
	// Samples is the total number of contention probes taken.
	Samples int
}

// BitAccuracy compares a trace against the true secret, returning the
// fraction of matching bits.
func (t Trace) BitAccuracy(truth []bool) float64 {
	if len(truth) == 0 {
		return 0
	}
	n := len(truth)
	if len(t.Bits) < n {
		n = len(t.Bits)
	}
	match := 0
	for i := 0; i < n; i++ {
		if t.Bits[i] == truth[i] {
			match++
		}
	}
	return float64(match) / float64(len(truth))
}

// Monitor runs the attacker's spy loop: from the given instance, it probes
// host contention throughout the schedule's span and reconstructs one bit
// per slot. It advances the virtual clock to the schedule's end. The monitor
// works purely from guest-observable state — it has no idea whether the spy
// instance actually shares the victim's host; that is what the recovered
// trace reveals.
func Monitor(sched *simtime.Scheduler, spy *faas.Instance, s Schedule, cfg MonitorConfig) (Trace, error) {
	if cfg.SamplesPerSlot <= 0 || cfg.VoteThreshold <= 0 || cfg.VoteThreshold > cfg.SamplesPerSlot {
		return Trace{}, fmt.Errorf("extraction: invalid monitor config %+v", cfg)
	}
	if len(s.Bits) == 0 {
		return Trace{}, fmt.Errorf("extraction: empty schedule")
	}
	if sched.Now().After(s.Start) {
		return Trace{}, fmt.Errorf("extraction: schedule started in the past")
	}
	sched.RunUntil(s.Start)

	step := s.SlotLength / time.Duration(cfg.SamplesPerSlot+1)
	trace := Trace{Bits: make([]bool, len(s.Bits))}
	for slot := range s.Bits {
		votes := 0
		for probe := 0; probe < cfg.SamplesPerSlot; probe++ {
			sched.Advance(step)
			units, err := faas.ProbeContention(spy)
			if err != nil {
				return Trace{}, err
			}
			if units > 0 {
				votes++
			}
			trace.Samples++
		}
		trace.Bits[slot] = votes >= cfg.VoteThreshold
		// Align to the start of the next slot.
		next := s.Start.Add(time.Duration(slot+1) * s.SlotLength)
		if next.After(sched.Now()) {
			sched.RunUntil(next)
		}
	}
	return trace, nil
}
