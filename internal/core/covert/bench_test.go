package covert

import (
	"testing"
	"time"

	"eaao/internal/faas"
	"eaao/internal/simtime"
)

// BenchmarkCTest is the covert layer's cost of one CTest: an RNG test of a
// co-located pair in a quiet world, and an LLC test of a triple (a
// co-located pair plus an instance on another host) in a world at 0.7
// bystander load, where every host's noise and drop odds depend on its
// residents. The tester advances a private clock, so the world under test
// stays frozen and every iteration measures the same test rather than
// traffic events or churn.
func BenchmarkCTest(b *testing.B) {
	b.Run("rng-pair-quiet", func(b *testing.B) {
		_, insts := testWorld(b, 9, 60)
		coA, coB, _, _ := findPairs(b, insts)
		benchCTest(b, DefaultConfig(), insts[coA], insts[coB])
	})
	b.Run("llc-triple-load0.7", func(b *testing.B) {
		p := testProfile()
		p.Traffic = faas.DefaultTrafficModel(p.NumHosts, 0.7)
		pl := faas.MustPlatform(9, p)
		pl.Scheduler().Advance(time.Hour)
		insts, err := pl.MustRegion("t").Account("a").DeployService("s", faas.ServiceConfig{}).Launch(60)
		if err != nil {
			b.Fatal(err)
		}
		coA, coB, farA, farB := findPairs(b, insts)
		far := farA
		if sameHost(insts[far], insts[coA]) {
			far = farB
		}
		benchCTest(b, LLCConfig(), insts[coA], insts[coB], insts[far])
	})
}

func benchCTest(b *testing.B, cfg Config, group ...*faas.Instance) {
	tester := NewTester(simtime.NewScheduler(0), cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tester.CTest(group, 2); err != nil {
			b.Fatal(err)
		}
	}
}
