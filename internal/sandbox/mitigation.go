package sandbox

import "time"

// Mitigations models the defenses of §6: masking the TSC value and frequency
// from untrusted guests. A platform operator enables them per region; the
// guest API is unchanged, so the same attack code runs against a hardened
// platform and the experiments can quantify exactly what breaks and what it
// costs.
type Mitigations struct {
	// TrapAndEmulateTSC (Gen 1) disables rdtsc/rdtscp in Ring 3 via CR4.TSD
	// so the kernel traps and emulates both instructions. The emulated
	// counter is container-relative and ticks at exactly the nominal
	// (reported) frequency, hiding both the host boot time and the per-host
	// frequency error — at the price of turning every timer read into a
	// kernel round trip.
	TrapAndEmulateTSC bool

	// TSCScaling (Gen 2) uses hardware-assisted TSC offsetting AND scaling:
	// the guest counter starts at zero on VM boot and is rescaled to the
	// nominal frequency, so the kernel-refined frequency exported to the
	// guest carries no per-host information. Being hardware-assisted, it
	// adds no timer-access overhead.
	TSCScaling bool
}

// Timer access costs used for the §6 overhead analysis. A native rdtsc is a
// few nanoseconds; a trapped-and-emulated read costs a privilege transition
// plus emulation — three orders of magnitude more (the paper cites
// Cassandra's write latency improving 43% when moving off a trapping clock
// source).
const (
	NativeTimerReadCost   = 8 * time.Nanosecond
	EmulatedTimerReadCost = 900 * time.Nanosecond
)

// TimerReadCost returns the per-read cost of the guest's TSC access under
// the given mitigations and sandbox generation.
func (m Mitigations) TimerReadCost(gen Gen) time.Duration {
	if gen == Gen1 && m.TrapAndEmulateTSC {
		return EmulatedTimerReadCost
	}
	// Gen 2 scaling is hardware-assisted: native cost.
	return NativeTimerReadCost
}
