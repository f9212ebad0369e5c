// Package cpu models the processor information a FaaS guest can observe
// through the unprivileged cpuid instruction: the brand (model-name) string,
// the labeled base frequency embedded in it, and the cache hierarchy.
//
// On Cloud Run, cpuid does not report the TSC frequency directly; the paper's
// method 1 (§4.2) therefore parses the labeled base frequency out of the
// model-name string (e.g. "Intel(R) Xeon(R) CPU @ 2.00GHz" → 2.00 GHz) and
// uses it as the reported TSC frequency. ParseBaseFrequency implements that
// parsing and the catalog lists the fleet mix the simulator draws hosts from.
package cpu

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Model describes one CPU SKU as visible to a guest.
type Model struct {
	// Name is the brand string returned by cpuid leaves 0x80000002-4,
	// including the labeled base frequency suffix.
	Name string
	// BaseHz is the labeled base frequency in Hz, as parsed from Name. The
	// nominal TSC frequency equals the base frequency on every model the
	// paper observed in Cloud Run.
	BaseHz float64
	// Cores is the number of physical cores per socket.
	Cores int
	// Sockets is the number of sockets on the host.
	Sockets int
	// L1DBytes is the per-core L1 data cache size.
	L1DBytes int64
	// L2Bytes is the per-core L2 cache size.
	L2Bytes int64
	// L3Bytes is the size of the last-level cache per socket.
	L3Bytes int64
	// CacheLineBytes is the cache line size (64 on every x86 server part).
	CacheLineBytes int
}

// Vendor returns "GenuineIntel" or "AuthenticAMD" as cpuid leaf 0 would.
func (m Model) Vendor() string {
	if strings.Contains(m.Name, "AMD") {
		return "AuthenticAMD"
	}
	return "GenuineIntel"
}

// TotalCores returns physical cores across all sockets.
func (m Model) TotalCores() int { return m.Cores * m.Sockets }

// ReportedTSCHz returns the TSC frequency the guest infers for this model:
// cpuid does not expose it, so the labeled base frequency is used (method 1
// of §4.2).
func (m Model) ReportedTSCHz() float64 { return m.BaseHz }

// String returns the model name.
func (m Model) String() string { return m.Name }

// ParseBaseFrequency extracts the labeled frequency (in Hz) from a CPU brand
// string such as "Intel(R) Xeon(R) CPU @ 2.00GHz". It returns an error when
// no frequency suffix is present. A Catalog name returns its BaseHz, which
// init parsed from the same string; any other name takes the full parser.
func ParseBaseFrequency(name string) (float64, error) {
	if m, ok := ByName(name); ok {
		return m.BaseHz, nil
	}
	return parseBaseFrequency(name)
}

// parseBaseFrequency is ParseBaseFrequency without the catalog fast path.
func parseBaseFrequency(name string) (float64, error) {
	at := strings.LastIndex(name, "@")
	if at < 0 {
		return 0, fmt.Errorf("cpu: no frequency label in %q", name)
	}
	label := strings.TrimSpace(name[at+1:])
	var mult float64
	switch {
	case strings.HasSuffix(label, "GHz"):
		mult = 1e9
		label = strings.TrimSuffix(label, "GHz")
	case strings.HasSuffix(label, "MHz"):
		mult = 1e6
		label = strings.TrimSuffix(label, "MHz")
	default:
		return 0, fmt.Errorf("cpu: unrecognized frequency unit in %q", name)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(label), 64)
	if err != nil {
		return 0, fmt.Errorf("cpu: bad frequency value in %q: %w", name, err)
	}
	if hz := v * mult; hz > 0 && hz <= math.MaxFloat64 {
		return hz, nil
	}
	return 0, fmt.Errorf("cpu: non-positive or non-finite frequency in %q", name)
}

// mustModel builds a Model, panicking if the name does not carry a parseable
// frequency label; the catalog below is static so a panic is a compile-time
// style invariant.
func mustModel(name string, cores, sockets int, l1d, l2, l3 int64) Model {
	hz, err := parseBaseFrequency(name)
	if err != nil {
		panic(err)
	}
	return Model{
		Name: name, BaseHz: hz,
		Cores: cores, Sockets: sockets,
		L1DBytes: l1d, L2Bytes: l2, L3Bytes: l3,
		CacheLineBytes: 64,
	}
}

// Catalog is the fleet mix the simulator draws physical hosts from. Cloud Run
// machines advertise anonymized brand strings of exactly this shape ("Intel
// Xeon CPU @ 2.00GHz" etc.); frequencies and cache sizes correspond to the
// Skylake/Cascade Lake/Milan parts common in Google's fleet.
var Catalog = []Model{
	// Intel parts: 32 KiB L1D, 1 MiB L2 (Skylake+) / 256 KiB (Broadwell).
	mustModel("Intel(R) Xeon(R) CPU @ 2.00GHz", 28, 2, 32<<10, 1<<20, 38_5*1024*1024/10), // Skylake-SP class
	mustModel("Intel(R) Xeon(R) CPU @ 2.20GHz", 24, 2, 32<<10, 256<<10, 33*1024*1024),    // Broadwell class
	mustModel("Intel(R) Xeon(R) CPU @ 2.80GHz", 26, 2, 32<<10, 1<<20, 39*1024*1024),      // Cascade Lake class
	// AMD EPYC: 32 KiB L1D, 512 KiB L2, 16 MiB L3 per CCX (256 MiB total).
	mustModel("AMD EPYC 7B12 @ 2.25GHz", 32, 2, 32<<10, 512<<10, 256*1024*1024), // Rome class
	mustModel("AMD EPYC 7B13 @ 2.45GHz", 32, 2, 32<<10, 512<<10, 256*1024*1024), // Milan class
}

// DefaultFleetWeights gives the probability weight of each Catalog entry when
// sampling hosts. Intel parts dominate the observed Cloud Run fleet.
var DefaultFleetWeights = []float64{0.35, 0.15, 0.25, 0.15, 0.10}

// ByName returns the catalog model with the given name.
func ByName(name string) (Model, bool) {
	for _, m := range Catalog {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}
