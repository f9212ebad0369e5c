package cpu

import "testing"

// FuzzParseBaseFrequency checks the brand-string parser never panics, only
// accepts positive frequencies, and that its catalog fast path agrees with
// the full parser: the same value, and an error from both or from neither.
func FuzzParseBaseFrequency(f *testing.F) {
	for _, m := range Catalog {
		f.Add(m.Name)
	}
	f.Add("CPU @ GHz")
	f.Add("@")
	f.Add("")
	f.Add("CPU @ 1e309GHz")
	f.Add("CPU @ -0GHz")
	f.Add("Intel(R) Xeon(R) CPU @ 3.10GHz")
	f.Add("X @ 2450MHz")
	f.Fuzz(func(t *testing.T, name string) {
		hz, err := ParseBaseFrequency(name)
		if err == nil && hz <= 0 {
			t.Errorf("accepted non-positive frequency %v from %q", hz, name)
		}
		full, ferr := parseBaseFrequency(name)
		if (err == nil) != (ferr == nil) || hz != full {
			t.Errorf("%q: fast path %v (%v), full parser %v (%v)", name, hz, err, full, ferr)
		}
	})
}
