package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// heldOutSeed is the second seed every performance claim must also hold on;
// seed 9 is the CLI default the workloads were sized on.
const heldOutSeed = 10

// TestWorkloadsDeterministic builds every workload's world twice on seed 9
// and on the held-out seed and runs a few ops on each build, one of them
// traced: no op may fail, and every op on a seed must fold to the same
// outcome digest.
func TestWorkloadsDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		digests := map[uint64]string{}
		for _, seed := range []uint64{9, heldOutSeed} {
			var want string
			for build := 0; build < 2; build++ {
				wd, _, err := w.setup(seed)
				if err != nil {
					t.Fatalf("%s seed %d: set-up: %v", w.name, seed, err)
				}
				for op := 0; op < 3; op++ {
					var tr *tracer
					if op == 2 {
						tr = newTracer()
					}
					res, err := w.runOp(wd, tr)
					if err != nil {
						t.Fatalf("%s seed %d build %d op %d: %v", w.name, seed, build, op, err)
					}
					if want == "" {
						want = res.digest
					} else if res.digest != want {
						t.Fatalf("%s seed %d build %d op %d diverged:\n  first: %s\n  this:  %s", w.name, seed, build, op, want, res.digest)
					}
				}
			}
			digests[seed] = want
		}
		if digests[9] == digests[heldOutSeed] {
			t.Errorf("%s: seeds 9 and %d gave the same outcome; the seed does not reach the world", w.name, heldOutSeed)
		}
	}
}

// TestDivergentOutcomeFails checks that an op whose outcome differs from the
// first op on its world counts as failed.
func TestDivergentOutcomeFails(t *testing.T) {
	b := &bench{out: &bytes.Buffer{}, cal: newCalibrator()}
	wd := &world{}
	b.check(wd, opResult{digest: "a"}, nil)
	b.check(wd, opResult{digest: "a"}, nil)
	if b.failed != 0 {
		t.Fatalf("identical outcomes counted %d failures", b.failed)
	}
	b.check(wd, opResult{digest: "b"}, nil)
	if b.attempted != 3 || b.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", b.attempted, b.failed)
	}
}

// TestReportMatchesBenchmarkJSON runs every workload briefly in both modes
// and checks the last output line against BENCHMARK.json: the untraced run
// reports exactly the end_to_end metrics, the traced run exactly the
// per_layer metrics, each with its declared unit.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload's worlds")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	for _, w := range names {
		for trace, want := range map[string][]decl{"0": spec.EndToEnd, "1": spec.PerLayer} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "9", "--seconds", "0.05", "--trace", trace, "--spans", spans}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s trace %s: last line is not the report: %v", w, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s trace %s: correct %v attempted %d failed %d", w, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			var got, exp []string
			for k, m := range rep.Metrics {
				got = append(got, k+" "+m.Unit)
			}
			for _, d := range want {
				exp = append(exp, d.Name+" "+d.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if strings.Join(got, ", ") != strings.Join(exp, ", ") {
				t.Errorf("%s trace %s metrics:\n  got  %v\n  want %v", w, trace, got, exp)
			}
		}
	}
}

func TestUnknownWorkloadIsUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Fatalf("printed %q on a usage error", out.String())
	}
}
