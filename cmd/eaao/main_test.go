package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eaao"
)

func TestWriteSVGs(t *testing.T) {
	dir := t.TempDir()
	res, err := eaao.RunExperiment("fig6", eaao.ExperimentContext{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSVGs(io.Discard, dir, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig6.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Error("not an SVG file")
	}
}

func TestWriteSVGsLogAxis(t *testing.T) {
	// fig4's p_boot sweep spans 7 decades: the writer must choose a log
	// axis (marked in the x label).
	dir := t.TempDir()
	res, err := eaao.RunExperiment("fig4", eaao.ExperimentContext{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSVGs(io.Discard, dir, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig4.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "(log)") {
		t.Error("wide-range x axis not rendered logarithmically")
	}
}

func TestCPUProfileWritesValidProfile(t *testing.T) {
	// The acceptance path is `eaao -cpuprofile cpu.out run fig11a -quick`:
	// profile an experiment run and verify the output is a real pprof
	// profile. runtime/pprof emits gzipped protobuf, so the file must start
	// with the gzip magic (0x1f 0x8b) — checked directly, no pprof tooling.
	path := filepath.Join(t.TempDir(), "cpu.out")
	stop, err := startCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := eaao.RunExperiment("fig11a", eaao.ExperimentContext{Seed: 42, Quick: true})
	stop()
	if runErr != nil {
		t.Fatal(runErr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("cpu profile does not start with gzip magic: % x", data[:min(len(data), 4)])
	}
}

func TestMemProfileWritesValidProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.out")
	if err := writeMemProfile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("mem profile does not start with gzip magic: % x", data[:min(len(data), 4)])
	}
}

func TestRunAttackSmoke(t *testing.T) {
	args := []string{
		"-region", "us-west1",
		"-services", "2",
		"-instances", "150",
		"-launches", "3",
		"-victims", "30",
	}
	if err := runAttack(io.Discard, io.Discard, args, 42, true, nil, eaao.FaultPlan{}, 0); err != nil {
		t.Fatal(err)
	}
	// A policy override flows through to the platform build.
	policy, err := eaao.PlacementPolicyByName("random-uniform")
	if err != nil {
		t.Fatal(err)
	}
	if err := runAttack(io.Discard, io.Discard, args, 42, true, policy, eaao.FaultPlan{}, 0); err != nil {
		t.Fatal(err)
	}
	// A channel override flows through to the campaign's tester.
	for _, ch := range []string{"llc", "combined"} {
		if err := runAttack(io.Discard, io.Discard, append([]string{"-channel", ch}, args...), 42, true, nil, eaao.FaultPlan{}, 0); err != nil {
			t.Fatalf("-channel %s: %v", ch, err)
		}
	}
	// Background traffic (-load) flows through to the platform build; the
	// noise preset carries the fault budgets because a loaded world sheds
	// launches.
	if err := runAttack(io.Discard, io.Discard, append([]string{"-recovery", "noise"}, args...), 42, true, nil, eaao.FaultPlan{}, 0.4); err != nil {
		t.Fatal(err)
	}
	// Unknown strategy, region, channel and recovery errors surface.
	for _, bad := range [][]string{
		{"-strategy", "bogus"},
		{"-region", "mars"},
		{"-channel", "hyperlane"},
		{"-recovery", "bogus"},
	} {
		if err := runAttack(io.Discard, io.Discard, bad, 42, true, nil, eaao.FaultPlan{}, 0); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
	// The noise ladder quarantines on one channel's solo samples, so the
	// combined channel is a configuration error, not a panic.
	err = runAttack(io.Discard, io.Discard, append([]string{"-channel", "combined", "-recovery", "noise"}, args...), 42, true, nil, eaao.FaultPlan{}, 0)
	if err == nil || !strings.Contains(err.Error(), "QuarantineAfter needs a single channel") {
		t.Errorf("-channel combined -recovery noise: err = %v", err)
	}
}

// TestRunAttackRecoveryFaults pins what the fault preset buys: at the 5%
// uniform fault level the unhardened campaign dies on its first probe fault,
// and -recovery faults carries it through.
func TestRunAttackRecoveryFaults(t *testing.T) {
	faults := eaao.UniformFaultPlan(0.05)
	if err := runAttack(io.Discard, io.Discard, []string{"-recovery", "faults"}, 9, true, nil, faults, 0); err != nil {
		t.Fatalf("-recovery faults: %v", err)
	}
	err := runAttack(io.Discard, io.Discard, []string{"-recovery", "none"}, 9, true, nil, faults, 0)
	if err == nil || !strings.Contains(err.Error(), "probe failed") {
		t.Errorf("-recovery none: err = %v, want the probe-fault error", err)
	}
}

func TestRunFleetAttackSmoke(t *testing.T) {
	args := []string{
		"-regions", "us-east1,us-west1",
		"-planner", "adaptive",
		"-services", "2",
		"-instances", "150",
		"-launches", "3",
		"-victims", "30",
	}
	if err := runAttack(io.Discard, io.Discard, args, 42, true, nil, eaao.FaultPlan{}, 0); err != nil {
		t.Fatal(err)
	}
	// A channel override reaches every shard campaign.
	if err := runAttack(io.Discard, io.Discard, append([]string{"-channel", "llc"}, args...), 42, true, nil, eaao.FaultPlan{}, 0); err != nil {
		t.Fatal(err)
	}
	// Unknown fleet regions and planners error out.
	if err := runAttack(io.Discard, io.Discard, []string{"-regions", "us-east1,mars"}, 42, true, nil, eaao.FaultPlan{}, 0); err == nil {
		t.Error("bogus fleet region accepted")
	}
	if err := runAttack(io.Discard, io.Discard, []string{"-regions", "us-east1", "-planner", "bogus"}, 42, true, nil, eaao.FaultPlan{}, 0); err == nil {
		t.Error("bogus planner accepted")
	}
}

// TestRunAttackQuickKeepsExplicitInstances pins that -quick shrinks only the
// default launch size: an explicit -instances 800, equal to the default,
// must still run 800 instances per launch.
func TestRunAttackQuickKeepsExplicitInstances(t *testing.T) {
	base := []string{"-services", "1", "-launches", "1", "-victims", "10"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "1 services × 1 launches × 200 instances"},
		{[]string{"-instances", "800"}, "1 services × 1 launches × 800 instances"},
	} {
		var out strings.Builder
		if err := runAttack(&out, io.Discard, append(tc.args, base...), 42, true, nil, eaao.FaultPlan{}, 0); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "campaign:          "+tc.want) {
			t.Errorf("%v: campaign line does not read %q:\n%s", tc.args, tc.want, out.String())
		}
	}
}
