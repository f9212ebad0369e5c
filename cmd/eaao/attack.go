package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"eaao"
)

// runAttack implements `eaao attack`: a parameterized attacker-vs-victim
// campaign on a fresh simulated platform, printing the coverage report and
// campaign cost to stdout. It is the CLI face of examples/colocation-attack.
// A bad flag is reported on stderr and returned wrapping errUsage.
func runAttack(stdout, stderr io.Writer, args []string, seed uint64, quick bool, policy eaao.PlacementPolicy, faults eaao.FaultPlan, load float64) error {
	fs := flag.NewFlagSet("attack", flag.ContinueOnError)
	region := fs.String("region", string(eaao.USEast1), "target region (us-east1, us-central1, us-west1)")
	channel := fs.String("channel", "", "covert channel for verification: rng, llc, membus, combined (empty = rng)")
	regions := fs.String("regions", "", "comma-separated regions for a multi-region fleet campaign (overrides -region)")
	planner := fs.String("planner", "", "fleet budget planner: static-even, proportional, adaptive (default: the strategy's native rule)")
	services := fs.Int("services", 6, "attacker services")
	perLaunch := fs.Int("instances", 800, "instances per launch")
	launches := fs.Int("launches", 6, "launches per service")
	interval := fs.Duration("interval", 10*time.Minute, "interval between launches")
	victims := fs.Int("victims", 100, "victim instances")
	strategy := fs.String("strategy", "optimized", "naive, optimized, or adaptive")
	gen2 := fs.Bool("gen2", false, "use the Gen 2 (VM) environment on both sides")
	recovery := fs.String("recovery", "none", "recovery preset: none, faults (launch, vote and probe retry budgets), noise (faults plus the noise-hardening ladder; needs a single channel)")
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	// The experiments' region set: quick scale, policy, faults and load
	// applied exactly as `eaao run` applies them.
	profiles := eaao.ExperimentContext{Quick: quick, Policy: policy, Faults: faults, Load: load}.Profiles()
	instancesSet := false
	fs.Visit(func(f *flag.Flag) { instancesSet = instancesSet || f.Name == "instances" })
	if quick && !instancesSet {
		*perLaunch = 200
	}
	gen := eaao.Gen1
	if *gen2 {
		gen = eaao.Gen2
	}

	cfg := eaao.DefaultAttackConfig()
	cfg.Services = *services
	cfg.InstancesPerLaunch = *perLaunch
	cfg.Launches = *launches
	cfg.Interval = *interval
	cfg.Channel = *channel
	switch *recovery {
	case "none":
	case "faults":
		cfg = cfg.WithFaultRecovery()
	case "noise":
		// A loaded region sheds launch waves, so the noise ladder rides on
		// the fault budgets.
		cfg = cfg.WithFaultRecovery().WithNoiseRecovery()
	default:
		return fmt.Errorf("unknown recovery preset %q (none, faults, noise)", *recovery)
	}

	strat, err := eaao.AttackStrategyByName(*strategy)
	if err != nil {
		return err
	}

	if *regions != "" {
		return runFleetAttack(stdout, seed, profiles, strings.Split(*regions, ","),
			*planner, cfg, gen, strat, *victims, faults, load)
	}

	pl := eaao.NewPlatform(seed, profiles...)
	dc, err := pl.Region(eaao.Region(*region))
	if err != nil {
		return err
	}
	if load > 0 {
		// Let the bystander tenants ramp to their target before anyone
		// launches — the same warm-up the noisesweep experiment uses.
		dc.Scheduler().Advance(2 * time.Hour)
	}
	vic, err := launchVictims(dc, gen, *victims)
	if err != nil {
		return err
	}

	start := time.Now()
	camp, err := eaao.NewAttackCampaign(dc.Account("attacker"), cfg, gen, strat)
	if err != nil {
		return err
	}
	res, err := camp.Launch()
	if err != nil {
		return err
	}
	cov, spies, err := camp.Verify(vic)
	if err != nil {
		return err
	}
	st := camp.Stats()

	fmt.Fprintf(stdout, "region:            %s (%s, %s strategy, %s channel)\n",
		dc.Region(), gen, strat.Name(), channelLabel(cfg.Channel))
	fmt.Fprintf(stdout, "campaign:          %d services × %d launches × %d instances @ %v\n",
		cfg.Services, cfg.Launches, cfg.InstancesPerLaunch, cfg.Interval)
	fmt.Fprintf(stdout, "attacker footprint: %d apparent hosts, %d live instances\n",
		res.Footprint.Cumulative(), len(res.Live))
	fmt.Fprintf(stdout, "victim coverage:   %s\n", cov)
	fmt.Fprintf(stdout, "co-located spies:  %d\n", len(spies))
	fmt.Fprintln(stdout, st.String())
	if faults.Enabled() {
		fmt.Fprintf(stdout, "injected faults:   %s\n", dc.FaultCounters())
	}
	fmt.Fprintf(stdout, "(simulated in %v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// channelLabel renders a channel selector for the report header ("" is the
// default RNG channel).
func channelLabel(ch string) string {
	if ch == "" {
		return "rng"
	}
	return ch
}

// launchVictims deploys the victim tenant's service in one region. The
// victim's deploy tooling retries transient faults like any production
// pipeline; the attacker-side budgets are the -recovery preset.
func launchVictims(dc *eaao.DataCenter, gen eaao.Gen, n int) ([]*eaao.Instance, error) {
	svc := dc.Account("victim").DeployService("victim-svc", eaao.ServiceConfig{Gen: gen})
	vic, err := svc.Launch(n)
	for tries := 0; err != nil && errors.Is(err, eaao.ErrLaunchFault) && tries < 8; tries++ {
		dc.Scheduler().Advance(15 * time.Second)
		vic, err = svc.Launch(n)
	}
	return vic, err
}

// runFleetAttack is the -regions path: one sharded campaign across a fleet
// of region worlds, with the budget planner reallocating launch rounds
// between them, printing per-region and fleet-wide ledgers.
func runFleetAttack(stdout io.Writer, seed uint64, profiles []eaao.RegionProfile, names []string,
	plannerName string, cfg eaao.AttackConfig, gen eaao.Gen,
	strat eaao.LaunchStrategy, victims int, faults eaao.FaultPlan, load float64) error {
	var selected []eaao.RegionProfile
	for _, name := range names {
		r := eaao.Region(strings.TrimSpace(name))
		found := false
		for _, p := range profiles {
			if p.Name == r {
				selected = append(selected, p)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown region %q (us-east1, us-central1, us-west1)", r)
		}
	}
	var planner eaao.Planner
	if plannerName != "" {
		var err error
		if planner, err = eaao.AttackPlannerByName(plannerName); err != nil {
			return err
		}
	}
	fleet, err := eaao.NewFleet(seed, selected...)
	if err != nil {
		return err
	}
	if load > 0 {
		for _, dc := range fleet.Shards() {
			dc.Scheduler().Advance(2 * time.Hour)
		}
	}

	start := time.Now()
	fc, err := eaao.NewFleetAttackCampaign(fleet, "attacker", cfg, gen, strat, planner)
	if err != nil {
		return err
	}
	if err := fc.Launch(); err != nil {
		return err
	}
	vicByRegion := make(map[eaao.Region][]*eaao.Instance, fleet.Size())
	for _, dc := range fleet.Shards() {
		vic, err := launchVictims(dc, gen, victims)
		if err != nil {
			return err
		}
		vicByRegion[dc.Region()] = vic
	}
	vers, err := fc.Verify(vicByRegion)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "fleet:             %d regions (%s, %s strategy, %s planner, %s channel)\n",
		fleet.Size(), gen, strat.Name(), fc.Planner().Name(), channelLabel(cfg.Channel))
	fmt.Fprintf(stdout, "campaign:          %d services × %d launches × %d instances @ %v per region\n",
		cfg.Services, cfg.Launches, cfg.InstancesPerLaunch, cfg.Interval)
	covs := make([]eaao.Coverage, 0, len(vers))
	spies := 0
	for _, v := range vers {
		covs = append(covs, v.Coverage)
		spies += len(v.Spies)
		fmt.Fprintf(stdout, "  %-12s %s, %d spies\n", v.Region+":", v.Coverage, len(v.Spies))
	}
	fmt.Fprintf(stdout, "fleet coverage:    %s\n", eaao.MergeCoverages(covs...))
	fmt.Fprintf(stdout, "co-located spies:  %d\n", spies)
	fmt.Fprintln(stdout, fc.Stats().String())
	if faults.Enabled() {
		for _, dc := range fleet.Shards() {
			fmt.Fprintf(stdout, "injected faults (%s): %s\n", dc.Region(), dc.FaultCounters())
		}
	}
	fmt.Fprintf(stdout, "(simulated in %v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}
