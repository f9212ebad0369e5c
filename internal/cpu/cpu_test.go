package cpu

import (
	"math"
	"testing"
)

func TestParseBaseFrequency(t *testing.T) {
	cases := []struct {
		name string
		want float64
	}{
		{"Intel(R) Xeon(R) CPU @ 2.00GHz", 2.00e9},
		{"Intel(R) Xeon(R) CPU @ 2.20GHz", 2.20e9},
		{"AMD EPYC 7B12 @ 2.25GHz", 2.25e9},
		{"Some CPU @ 800MHz", 800e6},
		{"Weird @ spacing @  3.5GHz", 3.5e9},
	}
	for _, c := range cases {
		got, err := ParseBaseFrequency(c.name)
		if err != nil {
			t.Errorf("%q: %v", c.name, err)
			continue
		}
		if math.Abs(got-c.want) > 1 {
			t.Errorf("%q: got %v Hz, want %v", c.name, got, c.want)
		}
	}
}

func TestParseBaseFrequencyErrors(t *testing.T) {
	for _, name := range []string{
		"Intel Xeon without frequency",
		"CPU @ 2.00THz",
		"CPU @ fastGHz",
		"CPU @ -2.0GHz",
		"CPU @ 0GHz",
	} {
		if _, err := ParseBaseFrequency(name); err == nil {
			t.Errorf("%q: expected error", name)
		}
	}
}

// TestParseBaseFrequencyFastPath checks that the catalog fast path returns
// exactly what the full parser derives from each catalog name, and that
// names outside the catalog still reach the full parser.
func TestParseBaseFrequencyFastPath(t *testing.T) {
	for _, m := range Catalog {
		fast, err := ParseBaseFrequency(m.Name)
		full, ferr := parseBaseFrequency(m.Name)
		if err != nil || ferr != nil || fast != full {
			t.Errorf("%q: fast path %v (%v), full parser %v (%v)", m.Name, fast, err, full, ferr)
		}
	}
	for name, want := range map[string]float64{
		"Intel(R) Xeon(R) CPU @ 3.10GHz": 3.10e9,
		"X @ 2450MHz":                    2450e6,
	} {
		if _, ok := ByName(name); ok {
			t.Fatalf("%q is a catalog name", name)
		}
		if got, err := ParseBaseFrequency(name); err != nil || got != want {
			t.Errorf("%q: got %v (%v), want %v", name, got, err, want)
		}
	}
}

func TestCatalogConsistent(t *testing.T) {
	if len(Catalog) == 0 {
		t.Fatal("empty catalog")
	}
	if len(DefaultFleetWeights) != len(Catalog) {
		t.Fatalf("weights (%d) and catalog (%d) length mismatch",
			len(DefaultFleetWeights), len(Catalog))
	}
	seen := make(map[string]bool)
	for i, m := range Catalog {
		if seen[m.Name] {
			t.Errorf("duplicate model %q", m.Name)
		}
		seen[m.Name] = true
		if m.BaseHz <= 0 {
			t.Errorf("%q: non-positive BaseHz", m.Name)
		}
		if m.ReportedTSCHz() != m.BaseHz {
			t.Errorf("%q: reported TSC %v != base %v", m.Name, m.ReportedTSCHz(), m.BaseHz)
		}
		if m.Cores <= 0 || m.Sockets <= 0 || m.L3Bytes <= 0 {
			t.Errorf("%q: invalid topology %+v", m.Name, m)
		}
		if DefaultFleetWeights[i] <= 0 {
			t.Errorf("%q: non-positive fleet weight", m.Name)
		}
		// The parsed frequency must round-trip from the name.
		hz, err := ParseBaseFrequency(m.Name)
		if err != nil || hz != m.BaseHz {
			t.Errorf("%q: frequency does not round-trip: %v %v", m.Name, hz, err)
		}
	}
}

func TestByName(t *testing.T) {
	m, ok := ByName(Catalog[0].Name)
	if !ok || m.Name != Catalog[0].Name {
		t.Errorf("ByName(%q) failed", Catalog[0].Name)
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName of unknown model succeeded")
	}
}

func TestCacheHierarchy(t *testing.T) {
	for _, m := range Catalog {
		if m.L1DBytes <= 0 || m.L2Bytes <= 0 || m.L3Bytes <= 0 {
			t.Errorf("%q: missing cache sizes", m.Name)
		}
		if !(m.L1DBytes < m.L2Bytes && m.L2Bytes < m.L3Bytes) {
			t.Errorf("%q: cache sizes not ascending: %d %d %d",
				m.Name, m.L1DBytes, m.L2Bytes, m.L3Bytes)
		}
		if m.CacheLineBytes != 64 {
			t.Errorf("%q: cache line %d", m.Name, m.CacheLineBytes)
		}
	}
}
