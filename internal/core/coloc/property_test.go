package coloc

import (
	"testing"
	"testing/quick"

	"eaao/internal/core/covert"
	"eaao/internal/core/fingerprint"
	"eaao/internal/faas"
	"eaao/internal/metrics"
)

// Property: across random worlds and launch sizes, the scalable methodology
// always reproduces the ground-truth clustering (FMI ≈ 1) while consuming
// far fewer tests than pairwise verification would.
func TestVerifyCorrectnessProperty(t *testing.T) {
	f := func(seedRaw uint16, nRaw uint8) bool {
		seed := uint64(seedRaw) + 1
		n := int(nRaw%120) + 30

		p := faas.USEast1Profile()
		p.Name = "prop"
		p.NumHosts = 130
		p.PlacementGroups = 3
		p.BasePoolSize = 35
		p.AccountHelperPool = 60
		p.ServiceHelperSize = 45
		p.ServiceHelperFresh = 5
		pl := faas.MustPlatform(seed, p)
		insts, err := pl.MustRegion("prop").Account("a").
			DeployService("s", faas.ServiceConfig{}).Launch(n)
		if err != nil {
			return false
		}
		tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())
		items := make([]Item, len(insts))
		for i, inst := range insts {
			s, err := fingerprint.CollectGen1(inst.MustGuest())
			if err != nil {
				return false
			}
			fp := fingerprint.Gen1FromSample(s, fingerprint.DefaultPrecision)
			items[i] = Item{Inst: inst, Fingerprint: fp.Key()}
		}
		res, err := Verify(tester, items, DefaultOptions())
		if err != nil {
			return false
		}
		truth := make([]faas.HostID, len(insts))
		for i, inst := range insts {
			truth[i], _ = inst.HostID()
		}
		sc := metrics.ScoreOf(res.Labels, truth)
		if sc.FMI < 0.999 {
			t.Logf("seed %d n %d: FMI %v", seed, n, sc.FMI)
			return false
		}
		return res.Tests < PairwiseTestCount(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: labels and clusters are mutually consistent for arbitrary
// (possibly adversarial) fingerprint assignments.
func TestVerifyLabelClusterConsistencyProperty(t *testing.T) {
	p := faas.USEast1Profile()
	p.Name = "prop"
	p.NumHosts = 130
	p.PlacementGroups = 3
	p.BasePoolSize = 35
	p.AccountHelperPool = 60
	p.ServiceHelperSize = 45
	p.ServiceHelperFresh = 5
	pl := faas.MustPlatform(99, p)
	insts, err := pl.MustRegion("prop").Account("a").
		DeployService("s", faas.ServiceConfig{}).Launch(60)
	if err != nil {
		t.Fatal(err)
	}
	tester := covert.NewTester(pl.Scheduler(), covert.DefaultConfig())

	f := func(assignRaw []uint8) bool {
		// Arbitrary fingerprint assignment: group instances by bytes of the
		// random input (simulating wildly wrong fingerprints).
		items := make([]Item, len(insts))
		for i, inst := range insts {
			key := 0
			if len(assignRaw) > 0 {
				key = int(assignRaw[i%len(assignRaw)]) % 6
			}
			items[i] = Item{Inst: inst, Fingerprint: fingerprint.Key{Model: "g", A: int64(key)}}
		}
		res, err := Verify(tester, items, DefaultOptions())
		if err != nil {
			return false
		}
		if len(res.Labels) != len(items) {
			return false
		}
		// Every label indexes a cluster containing that instance.
		for i, label := range res.Labels {
			if label < 0 || label >= len(res.Clusters) {
				return false
			}
			found := false
			for _, inst := range res.Clusters[label] {
				if inst == items[i].Inst {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		// Clusters partition the input.
		total := 0
		for _, c := range res.Clusters {
			total += len(c)
		}
		return total == len(items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Failure injection: an unreliable covert channel (vote threshold too low
// relative to background noise) must not corrupt the clustering structure —
// clusters still partition the instances even if accuracy degrades.
func TestVerifyWithNoisyChannelStructure(t *testing.T) {
	p := faas.USEast1Profile()
	p.Name = "noisy"
	p.NumHosts = 130
	p.PlacementGroups = 3
	p.BasePoolSize = 35
	p.AccountHelperPool = 60
	p.ServiceHelperSize = 45
	p.ServiceHelperFresh = 5
	pl := faas.MustPlatform(7, p)
	insts, err := pl.MustRegion("noisy").Account("a").
		DeployService("s", faas.ServiceConfig{}).Launch(80)
	if err != nil {
		t.Fatal(err)
	}
	// A single-round, single-vote test is at the mercy of background noise.
	cfg := covert.DefaultConfig()
	cfg.Rounds = 1
	cfg.VoteThreshold = 1
	tester := covert.NewTester(pl.Scheduler(), cfg)
	items := make([]Item, len(insts))
	for i, inst := range insts {
		s, err := fingerprint.CollectGen1(inst.MustGuest())
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint.Gen1FromSample(s, fingerprint.DefaultPrecision)
		items[i] = Item{Inst: inst, Fingerprint: fp.Key()}
	}
	res, err := Verify(tester, items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	seen := make(map[*faas.Instance]bool)
	for _, c := range res.Clusters {
		for _, inst := range c {
			if seen[inst] {
				t.Fatal("instance appears in two clusters")
			}
			seen[inst] = true
			total++
		}
	}
	if total != len(insts) {
		t.Errorf("clusters cover %d of %d instances", total, len(insts))
	}
}
