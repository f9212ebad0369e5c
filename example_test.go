package eaao_test

// Godoc examples for the main user journeys. These run as tests, so the
// documented outputs stay truthful.

import (
	"fmt"
	"time"

	"eaao"
)

// Fingerprint a physical host from inside a sandboxed instance (Eq. 4.1).
func ExampleCollectGen1() {
	pl := eaao.NewPlatform(2024, eaao.USEast1Profile())
	dc := pl.MustRegion(eaao.USEast1)
	insts, _ := dc.Account("me").DeployService("probe", eaao.ServiceConfig{}).Launch(1)

	sample, _ := eaao.CollectGen1(insts[0].MustGuest())
	fp := eaao.Gen1FromSample(sample, eaao.DefaultPrecision)
	fmt.Println(fp)
	// Output: gen1{Intel(R) Xeon(R) CPU @ 2.20GHz, boot=2023-05-02T08:25:48Z, p=1s}
}

// Verify co-location of many instances with O(hosts) covert-channel tests.
func ExampleVerifyColocation() {
	pl := eaao.NewPlatform(2024, eaao.USEast1Profile())
	dc := pl.MustRegion(eaao.USEast1)
	insts, _ := dc.Account("me").DeployService("probe", eaao.ServiceConfig{}).Launch(44)

	items := make([]eaao.VerifyItem, len(insts))
	for i, inst := range insts {
		s, _ := eaao.CollectGen1(inst.MustGuest())
		fp := eaao.Gen1FromSample(s, eaao.DefaultPrecision)
		items[i] = eaao.VerifyItem{Inst: inst, Fingerprint: fp.Key()}
	}
	tester := eaao.NewCovertTester(pl.Scheduler())
	res, _ := eaao.VerifyColocation(tester, items, eaao.DefaultVerifyOptions())
	fmt.Printf("%d instances → %d verified hosts in %d tests (pairwise would need %d)\n",
		len(insts), len(res.Clusters), res.Tests, len(insts)*(len(insts)-1)/2)
	// Output: 44 instances → 4 verified hosts in 25 tests (pairwise would need 946)
}

// The optimized launching strategy against a victim, end to end.
func ExampleNewAttackCampaign() {
	pl := eaao.NewPlatform(7, eaao.USEast1Profile())
	dc := pl.MustRegion(eaao.USEast1)

	vic, _ := dc.Account("victim").DeployService("login", eaao.ServiceConfig{}).Launch(40)

	cfg := eaao.DefaultAttackConfig()
	cfg.Services = 3
	cfg.InstancesPerLaunch = 300
	cfg.Launches = 4
	strat, _ := eaao.AttackStrategyByName("optimized")
	camp, _ := eaao.NewAttackCampaign(dc.Account("attacker"), cfg, eaao.Gen1, strat)
	res, _ := camp.Launch()

	tester := eaao.NewCovertTester(pl.Scheduler())
	cov, _, _ := eaao.MeasureCoverage(tester, res.Live, vic, eaao.CoverageOpts{Precision: cfg.Precision})
	fmt.Println("co-located with at least one victim instance:", cov.AtLeastOne)
	// Output: co-located with at least one victim instance: true
}

// Track a fingerprint's drift and predict its expiration (§4.4.2).
func ExampleDrift_Expiration() {
	// A host whose derived boot time drifts +0.2 s/day, currently sitting
	// 0.3 s below a 1-second rounding boundary.
	d := eaao.Drift{Rate: 0.2 / 86400, LastBootSec: 1000.2}
	exp, ok := d.Expiration(eaao.DefaultPrecision)
	fmt.Println(ok, exp.Round(time.Hour))
	// Output: true 36h0m0s
}
