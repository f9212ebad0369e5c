package main

import (
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"strings"
	"testing"
)

// simulatedIn matches the wall-clock trailer of an attack report, the only
// stdout line that varies between runs.
var simulatedIn = regexp.MustCompile(`(?m)^\(simulated in [^)]*\)\n`)

// TestAttackOutputPinned runs `eaao attack` variants through run and pins
// each one's exit code and the SHA-256 of its stdout minus the
// `(simulated in …)` trailer. A change to any simulated draw, launch wave,
// CTest or ledger line these campaigns reach changes a hash; erroring runs
// also pin the diagnostic. The cases cover main's split of global flags
// (-faults, -load) from the attack subcommand's own, the fault and noise
// recovery presets, the bystander-traffic (autoscale tick) path and the
// fleet path.
func TestAttackOutputPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   string
		code   int
		sha    string
		stderr string // substring of stderr, for failing runs
		long   bool   // skipped under -short
	}{
		{name: "default", args: "attack",
			sha: "3e6a70f385a57dad52a526a7e0dd1eb9589eb78884ff5ef6f19fe9ad8c477019"},
		{name: "quick", args: "-quick attack",
			sha: "39be606c01b11d103da3183c21c63091f068a087015b13046d6b195af3510356"},
		{name: "faults-recovery", args: "-quick -faults 0.05 attack -recovery faults",
			sha: "0fe6567fd3abcfed74443c3e6f9b23feb2943c4c66db72af3e7e166d466df191"},
		{name: "faults-unhardened", args: "-quick -faults 0.05 attack", code: 1,
			sha: emptySHA, stderr: "eaao attack: fingerprint: gen1 collection: sandbox: measurement probe failed"},
		{name: "loaded-noise", args: "-quick -load 0.4 attack -recovery noise",
			sha: "c380a5c0f9434fc93f43156cb17397b4d443d8e84225a6f22e31e330837dcf18"},
		{name: "loaded-llc", args: "-quick -load 0.7 attack -channel llc -recovery noise",
			sha: "01300043f9d596ed28066d207331689ad09270afde4bb8e63453eecc8937086d"},
		{name: "loaded-noise-full", args: "-load 0.4 attack -recovery noise", long: true,
			sha: "8dd43e47d1806f9d8767332b5160fa00bc2285cf12e25eb6277df7830d0faaa7"},
		{name: "fleet", args: "-quick attack -regions us-east1,us-west1",
			sha: "14e7dd9b7f6669c33b31bfdd464ebf667bbcba82f7122f3bcad1b929fb0df3ca"},
		{name: "fleet-faults", args: "-quick -faults 0.2 attack -regions us-east1,us-west1", code: 1,
			sha: emptySHA, stderr: "eaao attack: fingerprint: gen1 collection: sandbox: measurement probe failed"},
		{name: "unknown-flag", args: "-quick attack -bogus", code: 2,
			sha: emptySHA, stderr: "flag provided but not defined: -bogus"},
		{name: "global-flag-after-attack", args: "attack -load 0.4", code: 2,
			sha: emptySHA, stderr: "flag provided but not defined: -load"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("full-scale loaded campaign")
			}
			var stdout, stderr strings.Builder
			code := run(strings.Fields(tc.args), &stdout, &stderr)
			out := simulatedIn.ReplaceAllString(stdout.String(), "")
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); code != tc.code || got != tc.sha {
				t.Errorf("eaao %s: exit %d, stdout sha256 %s; want exit %d, %s\nstdout:\n%s\nstderr:\n%s",
					tc.args, code, got, tc.code, tc.sha, out, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("eaao %s: stderr %q does not contain %q", tc.args, stderr.String(), tc.stderr)
			}
		})
	}
}

// emptySHA is the SHA-256 of empty output.
const emptySHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
