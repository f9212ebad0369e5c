package faas

import (
	"fmt"
	"testing"
)

func TestChannelRegistry(t *testing.T) {
	wantNames := []string{"rng", "membus", "llc"}
	for i, want := range wantNames {
		res := Resource(i)
		if !res.Valid() || res.String() != want {
			t.Errorf("resource %d: Valid %v, name %q, want a valid %q", i, res.Valid(), res.String(), want)
		}
	}
	if Resource(NumResources).Valid() || Resource(-1).Valid() {
		t.Error("out-of-range resources report Valid")
	}
	// The LLC is the fast, load-sensitive family; the quiet channels must
	// stay load-insensitive or historical draw sequences change.
	llc := channelModels[ResourceLLC]
	if llc.LoadNoise <= 0 || llc.LoadDrop <= 0 {
		t.Error("LLC model is not load-sensitive")
	}
	for _, res := range []Resource{ResourceRNG, ResourceMemBus} {
		m := channelModels[res]
		if m.LoadNoise != 0 || m.LoadDrop != 0 {
			t.Errorf("%s model is load-sensitive; that changes frozen draw sequences", res)
		}
	}
}

// The LLC channel degrades with bystander load: a lone participant on a busy
// host sees far more false positives — and some dead rounds — than one on a
// quiet host, while the RNG channel reads the same everywhere.
func TestLLCChannelLoadSensitivity(t *testing.T) {
	dc := newTestDC(t, 23)
	// A heavily loaded tenant: bystander co-residents are pure host load —
	// residents that never participate in a round count as bystanders even
	// when they belong to the prober's own service.
	loadedInsts, err := dc.Account("prober").DeployService("p", ServiceConfig{}).Launch(240)
	if err != nil {
		t.Fatal(err)
	}
	var loaded *Instance
	for _, inst := range loadedInsts {
		if inst.host.ResidentCount() >= 4 {
			loaded = inst
			break
		}
	}
	// A quiet probe needs a host it has all to itself; single-instance
	// launches from fresh accounts land on lightly used base hosts.
	var quiet *Instance
	for i := 0; i < 10 && quiet == nil; i++ {
		insts, err := dc.Account(fmt.Sprintf("loner%d", i)).DeployService("q", ServiceConfig{}).Launch(1)
		if err != nil {
			t.Fatal(err)
		}
		if insts[0].host.ResidentCount() == 1 {
			quiet = insts[0]
		}
	}
	if quiet == nil || loaded == nil {
		t.Skip("world did not produce both a quiet and a loaded probe host")
	}

	rates := func(inst *Instance, res Resource) (fp, drop float64) {
		const rounds = 3000
		var fps, drops [1]int
		if err := ContentionRounds(res, []*Instance{inst}, rounds, 2, fps[:], drops[:]); err != nil {
			t.Fatal(err)
		}
		return float64(fps[0]) / rounds, float64(drops[0]) / rounds
	}

	quietFP, quietDrop := rates(quiet, ResourceLLC)
	loadedFP, loadedDrop := rates(loaded, ResourceLLC)
	if quietDrop != 0 {
		t.Errorf("LLC dropped %.3f of rounds on a quiet host, want 0", quietDrop)
	}
	if quietFP > 0.08 {
		t.Errorf("LLC quiet-host FP rate %.3f, want ≈0.04", quietFP)
	}
	if loadedFP < quietFP+0.05 {
		t.Errorf("LLC loaded-host FP rate %.3f not above quiet %.3f", loadedFP, quietFP)
	}
	if loadedDrop == 0 {
		t.Error("LLC loaded host never dropped a round")
	}

	// The RNG channel must not care about load.
	rngQuietFP, rngQuietDrop := rates(quiet, ResourceRNG)
	rngLoadedFP, rngLoadedDrop := rates(loaded, ResourceRNG)
	if rngQuietDrop != 0 || rngLoadedDrop != 0 {
		t.Error("RNG channel dropped rounds")
	}
	if rngQuietFP > 0.02 || rngLoadedFP > 0.02 {
		t.Errorf("RNG FP rates %.3f / %.3f, want < 0.02 regardless of load", rngQuietFP, rngLoadedFP)
	}
}
