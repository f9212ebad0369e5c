// Co-location attack: the paper's end-to-end scenario. A victim runs a login
// service on the simulated platform; the attacker, a regular tenant with no
// placement control, first tries naive mass launching (Strategy 1) and then
// the optimized demand-priming strategy (Strategy 2), verifying co-location
// with the covert channel and pricing the whole campaign.
package main

import (
	"fmt"
	"log"
	"time"

	"eaao"
)

func main() {
	pl := eaao.NewPlatform(99, eaao.USEast1Profile())
	dc := pl.MustRegion(eaao.USEast1)

	// The victim: an ordinary account running a sensitive service.
	victim := dc.Account("victim-corp")
	login := victim.DeployService("login", eaao.ServiceConfig{Size: eaao.SizeSmall})
	vicInsts, err := login.Launch(100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("victim deployed %d instances of %q\n\n", len(vicInsts), login.Name())

	attacker := dc.Account("attacker")
	cfg := eaao.DefaultAttackConfig()
	cfg.Services = 4
	cfg.InstancesPerLaunch = 400
	tester := eaao.NewCovertTester(pl.Scheduler())

	// Strategy 1: naive cold launches. The instances land on the attacker's
	// own base hosts, which (usually) do not intersect the victim's.
	naive, err := launch(attacker, cfg, "naive")
	if err != nil {
		log.Fatal(err)
	}
	opts := eaao.CoverageOpts{Precision: cfg.Precision}
	cov, _, err := eaao.MeasureCoverage(tester, naive.Live, vicInsts, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Strategy 1 (naive): %d instances on %d apparent hosts → %s\n",
		len(naive.Live), naive.Footprint.Cumulative(), cov)

	// Tear the naive attempt down and wait for the account to go cold.
	attackerCleanup(attacker, naive)
	pl.Scheduler().Advance(45 * 60 * 1e9)

	// Strategy 2: prime services into a high-demand state by relaunching at
	// 10-minute intervals. The load balancer spreads the attacker across
	// helper hosts — including the victim's.
	attacker.ResetBill()
	opt, err := launch(attacker, cfg, "optimized")
	if err != nil {
		log.Fatal(err)
	}
	// The victim's autoscaler may have replaced some instances while the
	// campaign ran; measure against the ones that exist now.
	vicInsts = login.ActiveInstances()
	cov, spies, err := eaao.MeasureCoverage(tester, opt.Live, vicInsts, opts)
	if err != nil {
		log.Fatal(err)
	}
	bill := attacker.Bill()
	cost := eaao.CloudRunRates().Cost(bill.VCPUSeconds, bill.GBSeconds)
	fmt.Printf("Strategy 2 (optimized): %d instances on %d apparent hosts → %s\n",
		len(opt.Live), opt.Footprint.Cumulative(), cov)
	fmt.Printf("campaign cost: %.2f USD (%d launches, %d instances created)\n\n",
		cost, bill.Launches, bill.Instances)

	if !cov.AtLeastOne {
		fmt.Println("no co-location achieved — try more services or launches")
		return
	}

	// Step 2 of the threat model: from a verified co-located spy, detect
	// when the victim's sensitive routine runs. The login service leaks a
	// 16-bit session secret through its execution pattern.
	fmt.Printf("co-located: %d spy instances share hosts with the victim — starting extraction\n", len(spies))
	spy := spies[0]
	spyHost, _ := spy.HostID()
	var target *eaao.Instance
	for _, v := range vicInsts {
		if id, _ := v.HostID(); id == spyHost {
			target = v
			break
		}
	}
	secret := []bool{true, false, true, true, false, false, true, false,
		true, true, true, false, false, false, true, true}
	sched := eaao.ExtractionSchedule{
		Start:      pl.Now().Add(time.Second),
		SlotLength: 100 * time.Millisecond,
		Bits:       secret,
	}
	target.SetWorkload(sched.Activity())
	trace, err := eaao.MonitorExtraction(pl.Scheduler(), spy, sched, eaao.DefaultMonitorConfig())
	if err != nil {
		log.Fatal(err)
	}
	recovered := ""
	for _, b := range trace.Bits {
		if b {
			recovered += "1"
		} else {
			recovered += "0"
		}
	}
	fmt.Printf("victim secret bits recovered: %s (accuracy %.0f%%)\n",
		recovered, trace.BitAccuracy(secret)*100)
}

// launch runs the launch stage of a fresh campaign driven by the named
// built-in strategy.
func launch(acct *eaao.Account, cfg eaao.AttackConfig, strategy string) (*eaao.CampaignResult, error) {
	strat, err := eaao.AttackStrategyByName(strategy)
	if err != nil {
		return nil, err
	}
	camp, err := eaao.NewAttackCampaign(acct, cfg, eaao.Gen1, strat)
	if err != nil {
		return nil, err
	}
	return camp.Launch()
}

// attackerCleanup disconnects every live instance of a finished campaign.
func attackerCleanup(acct *eaao.Account, res *eaao.CampaignResult) {
	seen := map[*eaao.Service]bool{}
	for _, inst := range res.Live {
		if svc := inst.Service(); !seen[svc] {
			seen[svc] = true
			svc.Disconnect()
		}
	}
	_ = acct
}
