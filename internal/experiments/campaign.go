package experiments

import (
	"errors"
	"time"

	"eaao/internal/core/attack"
	"eaao/internal/faas"
	"eaao/internal/sandbox"
)

// launchCampaign builds a campaign for the named account on the region and
// runs its launch stage. The returned campaign carries the footprint, the
// cost ledger, and an instrumented covert tester for verification — the
// attacker/tester wiring every coverage experiment used to assemble by hand.
func launchCampaign(dc *faas.DataCenter, account string, cfg attack.Config,
	strategy attack.LaunchStrategy, gen sandbox.Gen) (*attack.Campaign, error) {
	camp, err := attack.NewCampaign(dc.Account(account), cfg, gen, strategy)
	if err != nil {
		return nil, err
	}
	if _, err := camp.Launch(); err != nil {
		return nil, err
	}
	return camp, nil
}

// attackerCampaign is launchCampaign at this context's standard campaign
// scale (attackCfg), the setup shared by fig11, fig12, and the extension
// experiments.
func (c Context) attackerCampaign(dc *faas.DataCenter, account string,
	strategy attack.LaunchStrategy, gen sandbox.Gen) (*attack.Campaign, error) {
	return launchCampaign(dc, account, c.attackCfg(), strategy, gen)
}

// cell is one sweep cell's outcome: a Gen1 campaign launched as "attacker",
// the standard victim, and the verification between them.
type cell struct {
	stats   attack.CampaignStats
	cov     attack.Coverage
	vicSvc  *faas.Service
	victims []*faas.Instance
	spies   []*faas.Instance
	// died marks a campaign lost to an unrecovered injected fault.
	died bool
}

// coverage is the cell's victim coverage, zero for a campaign that died.
func (c cell) coverage() float64 {
	if c.died {
		return 0
	}
	return c.cov.Fraction()
}

// runCell runs one sweep cell on dc: it launches the campaign as
// "attacker", deploys the standard victim (60 instances, three cold
// launches as "victim"), and verifies the footprint against it. An injected
// fault at any stage marks the cell died instead of failing the experiment;
// any other error is returned.
func runCell(dc *faas.DataCenter, cfg attack.Config, strategy attack.LaunchStrategy) (cell, error) {
	var c cell
	lost := func(err error) (cell, error) {
		if !injectedFault(err) {
			return cell{}, err
		}
		c.died = true
		return c, nil
	}
	camp, err := launchCampaign(dc, "attacker", cfg, strategy, sandbox.Gen1)
	if err != nil {
		return lost(err)
	}
	c.vicSvc, c.victims, err = coldVictim(dc, "victim", "v", faas.ServiceConfig{}, 60, 3)
	if err == nil {
		c.cov, c.spies, err = camp.Verify(c.victims)
	}
	c.stats = camp.Stats()
	if err != nil {
		return lost(err)
	}
	return c, nil
}

// coldVictim deploys a victim service and launches it launches times with
// 45-minute disconnected gaps in between, so the final set — the one
// returned — is measured in placement steady state rather than dominated by
// the unavoidable first cold launch. The victim tenant's deploy tooling
// retries transient launch rejections (up to 8 times, 15 s apart) like any
// production pipeline, so on a faulted or congested world victim existence
// is part of the environment rather than a casualty of the sweep; a
// fault-free world never takes a retry.
func coldVictim(dc *faas.DataCenter, account, service string, cfg faas.ServiceConfig,
	n, launches int) (*faas.Service, []*faas.Instance, error) {
	svc := dc.Account(account).DeployService(service, cfg)
	var vic []*faas.Instance
	for l := 0; l < launches; l++ {
		var err error
		vic, err = svc.Launch(n)
		for tries := 0; err != nil && errors.Is(err, faas.ErrLaunchFault) && tries < 8; tries++ {
			dc.Scheduler().Advance(15 * time.Second)
			vic, err = svc.Launch(n)
		}
		if err != nil {
			return nil, nil, err
		}
		if l < launches-1 {
			svc.Disconnect()
			dc.Scheduler().Advance(45 * time.Minute)
		}
	}
	return svc, vic, nil
}

// injectedFault reports whether an error chain bottoms out in one of the
// fault plane's injected failures (as opposed to a programming error, which
// must fail the experiment).
func injectedFault(err error) bool {
	return errors.Is(err, faas.ErrLaunchFault) || errors.Is(err, sandbox.ErrProbeFault)
}
