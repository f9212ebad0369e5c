package attack

import (
	"time"

	"eaao/internal/core/fingerprint"
	"eaao/internal/faas"
)

// TargetBook records the fingerprints of hosts observed to run a victim's
// instances — the paper's re-attack optimization (§5.2): "record the
// fingerprints of hosts used by the victim during the first attack ... in
// subsequent attacks targeting the same victim, the attacker can focus
// side-channel attack efforts on hosts with fingerprints that match."
type TargetBook struct {
	precision time.Duration
	hosts     map[fingerprint.Gen1]bool
}

// NewTargetBook creates an empty book at the given fingerprint precision.
func NewTargetBook(precision time.Duration) *TargetBook {
	return &TargetBook{
		precision: precision,
		hosts:     make(map[fingerprint.Gen1]bool),
	}
}

// RecordVictimHosts fingerprints the hosts under the given attacker
// instances that were verified to share a host with a victim (e.g. the
// spies selected from a Coverage measurement) and adds them to the book.
func (tb *TargetBook) RecordVictimHosts(colocated []*faas.Instance) error {
	for _, inst := range colocated {
		g, err := inst.Guest()
		if err != nil {
			continue // recycled since verification; nothing to record
		}
		s, err := fingerprint.CollectGen1(g)
		if err != nil {
			return err
		}
		tb.hosts[fingerprint.Gen1FromSample(s, tb.precision)] = true
	}
	return nil
}

// Size returns the number of recorded victim hosts.
func (tb *TargetBook) Size() int { return len(tb.hosts) }

// Matches reports whether a fingerprint matches a recorded victim host.
// Matching is drift-tolerant: fingerprints recorded days earlier may have
// drifted across one rounding boundary (§4.4.2), so adjacent buckets of the
// same CPU model also match.
func (tb *TargetBook) Matches(fp fingerprint.Gen1) bool {
	if tb.hosts[fp] {
		return true
	}
	for _, d := range []int64{-1, 1} {
		adj := fp
		adj.BootBucket += d
		if tb.hosts[adj] {
			return true
		}
	}
	return false
}

// Focus filters the attacker's live instances down to those residing on
// recorded victim hosts: the only instances that need to run the expensive
// side-channel extraction in a repeat attack. The returned effort fraction
// is len(focused)/len(live attacker instances).
func (tb *TargetBook) Focus(attacker []*faas.Instance) (focused []*faas.Instance, effort float64, err error) {
	live := 0
	for _, inst := range attacker {
		g, gerr := inst.Guest()
		if gerr != nil {
			continue // terminated
		}
		live++
		s, cerr := fingerprint.CollectGen1(g)
		if cerr != nil {
			return nil, 0, cerr
		}
		if tb.Matches(fingerprint.Gen1FromSample(s, tb.precision)) {
			focused = append(focused, inst)
		}
	}
	if live == 0 {
		return nil, 0, nil
	}
	return focused, float64(len(focused)) / float64(live), nil
}
