package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"strings"
	"testing"
)

// goldenSeed is the CLI's documented default seed (chosen so the study
// accounts' base-pool geometry resembles the paper's; see CLAUDE.md).
const goldenSeed = 9

// goldenQuickDigest is the SHA-256 over the rendered seed-9 Quick-mode
// output of every seed-era experiment (runtime metrics excluded), under the
// default per-instance lifecycle kernel.
//
// RE-PIN HISTORY: the original hash (b1f376cc01…, recorded immediately before
// the placement-policy extraction) pinned the hourly churn/preemption sweep
// and launch-time demand-decay detection. This constant was deliberately
// re-pinned when those were replaced by per-instance scheduled events:
// the kernel draws per-instance exponential delays (same per-hour survival
// probability as the sweep's Bernoulli, different RNG stream), gives new
// instances one interval of churn/preemption immunity, and fires demand decay
// at window expiry instead of at the next cold launch — distributionally
// equivalent dynamics, not byte-identical draws. The frozen sweep and its
// digest were later retired (see DESIGN.md §5); this hash pins the kernel,
// the only lifecycle.
//
// New experiments may be appended to the registry freely — the digest
// covers exactly the ids in goldenIDs, not "whatever run all prints".
const goldenQuickDigest = "22d68b225e0becd1cd208db36b23127acb83d1f0c22cc064163ca03c823d9de7"

// goldenIDs is the frozen experiment set the golden digest covers (the
// registry as of the growth seed, in presentation order).
var goldenIDs = []string{
	"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11a", "fig11b", "fig12", "table1", "freq", "verifycost",
	"gen2", "naive", "cost", "gen2cov", "mitigation", "extraction",
	"reattack", "ablations",
}

// quickDigest renders every experiment in ids at Quick scale under ctx's
// options and hashes the concatenated output. The runtime_* metrics (wall
// clock, worker count, throughput rates) are the only nondeterministic part
// of a Result, so they are dropped before rendering.
func quickDigest(t *testing.T, ctx Context, ids []string) string {
	t.Helper()
	h := sha256.New()
	for _, id := range ids {
		res, err := Run(id, ctx)
		if err != nil {
			t.Fatalf("%s (jobs=%d): %v", id, ctx.Jobs, err)
		}
		for k := range res.Metrics {
			if strings.HasPrefix(k, "runtime_") {
				delete(res.Metrics, k)
			}
		}
		if _, err := io.WriteString(h, res.String()); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// postSeedIDs are the campaign experiments added after the growth seed that
// share the experiments' campaign helpers (launch, victim, verify cell), and
// postSeedQuickDigest is their seed-9 Quick-mode digest. They are pinned
// separately so goldenIDs stays the frozen seed-era set.
var postSeedIDs = []string{
	"policyablation", "strategyablation", "faultsweep", "channelablation",
	"noisesweep", "multiregion",
}

const postSeedQuickDigest = "d996e3cf5873b8265c7e510a2253f1abfa0d2313d94f44be628e226f3240f342"

// TestGoldenDigestStableAcrossJobs is the determinism guard: each pinned
// experiment set's Quick-mode seed-9 digest must be byte-stable for any
// trial-engine worker count, and — on the reference architecture — must
// match its recorded hash, so any behavioral drift in the placement engine
// (or anywhere upstream of it) fails loudly instead of silently
// recalibrating every experiment.
func TestGoldenDigestStableAcrossJobs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ids    []string
		golden string
	}{
		{"seed-era", goldenIDs, goldenQuickDigest},
		{"post-seed", postSeedIDs, postSeedQuickDigest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := quickDigest(t, Context{Seed: goldenSeed, Quick: true, Jobs: 1}, tc.ids)
			par := quickDigest(t, Context{Seed: goldenSeed, Quick: true, Jobs: 8}, tc.ids)
			if seq != par {
				t.Fatalf("digest differs across -jobs values:\n  jobs=1: %s\n  jobs=8: %s", seq, par)
			}
			// Floating-point instruction selection can differ across
			// architectures (e.g. fused multiply-add on arm64), so the exact
			// hash is only pinned on the architecture it was recorded on.
			if runtime.GOARCH != "amd64" {
				t.Logf("digest %s (golden comparison skipped on %s)", seq, runtime.GOARCH)
				return
			}
			if seq != tc.golden {
				t.Fatalf("seed-%d Quick digest drifted:\n  got    %s\n  golden %s\n"+
					"If this change is an intentional recalibration, re-record the golden "+
					"hash and refresh EXPERIMENTS.md; otherwise the change altered "+
					"simulated behavior.", goldenSeed, seq, tc.golden)
			}
		})
	}
}

// TestScaleDigestStableAcrossJobs extends the determinism guard to the scale
// experiment (which postdates the frozen goldenIDs set, so the golden digest
// does not cover it): its deterministic outputs — instance counts, events
// executed, hosts materialized — must be byte-identical for any -jobs value,
// with only the runtime_* throughput metrics allowed to differ.
func TestScaleDigestStableAcrossJobs(t *testing.T) {
	ids := []string{"scale"}
	seq := quickDigest(t, Context{Seed: goldenSeed, Quick: true, Jobs: 1}, ids)
	par := quickDigest(t, Context{Seed: goldenSeed, Quick: true, Jobs: 8}, ids)
	if seq != par {
		t.Fatalf("scale digest differs across -jobs values:\n  jobs=1: %s\n  jobs=8: %s", seq, par)
	}
}

// TestScaleFullOutcomesPinned pins the full-scale scale experiment's
// outcomes at the default seed, which no quick digest reaches: its 128
// tenants step demand at one instant, so their autoscale ticks tie, and a
// tick that fired out of its chain's order would move these counts. The
// kernel's event count is left out on purpose: it measures the kernel's
// work, not the simulated world.
func TestScaleFullOutcomesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale scale run")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("outcomes pinned on amd64 only (floating point may differ on %s)", runtime.GOARCH)
	}
	res, err := Run("scale", Context{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"instances_created":   202683,
		"peak_live_instances": 140800,
		"preemptions":         3527,
		"hosts_materialized":  6234,
	} {
		if got := res.Metrics[name]; got != want {
			t.Errorf("full-scale scale %s = %v, want %v", name, got, want)
		}
	}
}
