package experiments

import (
	"fmt"

	"eaao/internal/core/attack"
	"eaao/internal/faas"
	"eaao/internal/report"
	"eaao/internal/sandbox"
	"eaao/internal/stats"
)

// coverageKey identifies one bar of Fig. 11.
type coverageKey struct {
	region  faas.Region
	account string
	config  string // e.g. "n=100" or "size=Small"
}

// attackCfg returns the optimized-strategy campaign configuration for this
// context.
func (c Context) attackCfg() attack.Config {
	cfg := attack.DefaultConfig()
	cfg.InstancesPerLaunch = c.launchSize()
	if c.Quick {
		cfg.Services = 3
		cfg.Launches = 4
	}
	return cfg
}

// runCoverageStudy executes the Fig. 11 protocol: per region and repetition,
// one optimized attacker campaign, then cold victim launches for every
// (victim account, victim configuration) pair, each verified for co-location
// against the attacker's live footprint. configs maps a config label to the
// victim service settings and instance count.
type victimConfig struct {
	label string
	size  faas.InstanceSize
	count int
}

// defaultLabel marks the configuration whose trials feed the headline
// "co-located with at least one victim instance" metric (tiny victim sets
// occupy only one or two hosts, so the headline is defined at the default
// victim count, as in the paper).
func runCoverageStudy(ctx Context, gen sandbox.Gen, configs []victimConfig, defaultLabel string) (map[coverageKey][]float64, map[faas.Region]bool, error) {
	_, victims := accounts()
	profiles := ctx.Profiles()
	reps := ctx.reps()

	// One trial per (repetition × region). A fresh world per trial models
	// "different days": the paper's repeated measurements each began from a
	// cold attacker state, so each trial builds its own single-region world
	// from its sub-seed and runs one full campaign against it.
	type covTrial struct {
		fracs     [][]float64 // [victim account][config]
		defaultOK bool        // cov.AtLeastOne held for every victim at defaultLabel
	}
	runs, err := runTrials(ctx, reps*len(profiles), func(t Trial) (covTrial, error) {
		prof := profiles[t.Index%len(profiles)]
		rep := t.Index / len(profiles)
		pl := faas.MustPlatform(t.Seed, prof)
		dc := pl.MustRegion(prof.Name)
		camp, err := ctx.attackerCampaign(dc, "account-1", attack.OptimizedStrategy{}, gen)
		if err != nil {
			return covTrial{}, err
		}
		out := covTrial{defaultOK: true}
		for _, vicAcct := range victims {
			fr := make([]float64, len(configs))
			for ci, vc := range configs {
				svc := dc.Account(vicAcct).DeployService(
					fmt.Sprintf("victim-%d-%d", rep, ci),
					faas.ServiceConfig{Size: vc.size, Gen: gen})
				vicInsts, err := svc.Launch(vc.count)
				if err != nil {
					return covTrial{}, err
				}
				cov, _, err := camp.Verify(vicInsts)
				if err != nil {
					return covTrial{}, err
				}
				fr[ci] = cov.Fraction()
				if vc.label == defaultLabel && !cov.AtLeastOne {
					out.defaultOK = false
				}
				svc.Disconnect()
			}
			out.fracs = append(out.fracs, fr)
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Merge by trial index: per-key repetition values keep repetition order.
	out := make(map[coverageKey][]float64)
	atLeastOne := make(map[faas.Region]bool)
	for ti, run := range runs {
		region := profiles[ti%len(profiles)].Name
		if _, ok := atLeastOne[region]; !ok {
			atLeastOne[region] = true
		}
		if !run.defaultOK {
			atLeastOne[region] = false
		}
		for vi, vicAcct := range victims {
			for ci, vc := range configs {
				key := coverageKey{region: region, account: vicAcct, config: vc.label}
				out[key] = append(out[key], run.fracs[vi][ci])
			}
		}
	}
	return out, atLeastOne, nil
}

// coverageResult assembles the Fig. 11-style table and figure.
func coverageResult(res *Result, figID, title string, regions []faas.Region,
	victims []string, configs []victimConfig, data map[coverageKey][]float64) {

	tbl := report.NewTable(title, "region", "victim", "config", "coverage", "stddev")
	fig := &report.Figure{ID: figID, Title: title, XLabel: "region/account index", YLabel: "victim coverage"}
	for _, vc := range configs {
		var ys, xs []float64
		i := 0.0
		for _, region := range regions {
			for _, acct := range victims {
				vals := data[coverageKey{region: region, account: acct, config: vc.label}]
				mean := stats.Mean(vals)
				tbl.AddRow(string(region), acct, vc.label, mean, stats.StdDev(vals))
				xs = append(xs, i)
				ys = append(ys, mean)
				i++
			}
		}
		fig.AddSeries(vc.label, xs, ys)
	}
	res.Tables = append(res.Tables, tbl)
	res.Figures = append(res.Figures, fig)
}

func runFig11a(ctx Context) (*Result, error) {
	d, _ := ByID("fig11a")
	res := newResult(d)

	var configs []victimConfig
	for _, n := range ctx.victimCounts() {
		configs = append(configs, victimConfig{
			label: fmt.Sprintf("n=%d", n),
			size:  faas.SizeSmall,
			count: n,
		})
	}
	defLabel := fmt.Sprintf("n=%d", ctx.defaultVictims())
	data, atLeastOne, err := runCoverageStudy(ctx, sandbox.Gen1, configs, defLabel)
	if err != nil {
		return nil, err
	}
	regions := ctx.regions()
	_, victims := accounts()
	coverageResult(res, "fig11a", "Victim coverage, varying victim instance count (Small)",
		regions, victims, configs, data)

	for _, region := range regions {
		for _, acct := range victims {
			vals := data[coverageKey{region: region, account: acct, config: defLabel}]
			res.Metrics[fmt.Sprintf("coverage_%s_%s", region, acct)] = stats.Mean(vals)
		}
		if atLeastOne[region] {
			res.Metrics["at_least_one_"+string(region)] = 1
		} else {
			res.Metrics["at_least_one_"+string(region)] = 0
		}
	}
	res.note("paper (default n=100): us-east1 97.7%%/99.7%%, us-central1 61.3%%/90.0%%, us-west1 100%%/100%%; at least one victim instance co-located in every trial")
	return res, nil
}

func runFig11b(ctx Context) (*Result, error) {
	d, _ := ByID("fig11b")
	res := newResult(d)

	var configs []victimConfig
	for _, size := range faas.SizeCatalog {
		configs = append(configs, victimConfig{
			label: "size=" + size.Name,
			size:  size,
			count: ctx.defaultVictims(),
		})
	}
	data, _, err := runCoverageStudy(ctx, sandbox.Gen1, configs, "size=Small")
	if err != nil {
		return nil, err
	}
	regions := ctx.regions()
	_, victims := accounts()
	coverageResult(res, "fig11b", "Victim coverage, varying victim size (count fixed)",
		regions, victims, configs, data)

	// Size must not matter much: record the spread across sizes per region.
	for _, region := range regions {
		var means []float64
		for _, vc := range configs {
			var all []float64
			for _, acct := range victims {
				all = append(all, data[coverageKey{region: region, account: acct, config: vc.label}]...)
			}
			means = append(means, stats.Mean(all))
		}
		res.Metrics["size_spread_"+string(region)] = stats.Max(means) - stats.Min(means)
	}
	res.note("paper: victim size has no significant influence on coverage — instances of different sizes share the same base hosts")
	return res, nil
}

func runGen2Coverage(ctx Context) (*Result, error) {
	d, _ := ByID("gen2cov")
	res := newResult(d)

	configs := []victimConfig{{
		label: fmt.Sprintf("n=%d", ctx.defaultVictims()),
		size:  faas.SizeSmall,
		count: ctx.defaultVictims(),
	}}
	data, _, err := runCoverageStudy(ctx, sandbox.Gen2, configs, configs[0].label)
	if err != nil {
		return nil, err
	}
	regions := ctx.regions()
	_, victims := accounts()
	coverageResult(res, "gen2cov", "Victim coverage in the Gen 2 environment",
		regions, victims, configs, data)
	for _, region := range regions {
		for _, acct := range victims {
			vals := data[coverageKey{region: region, account: acct, config: configs[0].label}]
			res.Metrics[fmt.Sprintf("coverage_%s_%s", region, acct)] = stats.Mean(vals)
		}
	}
	res.note("paper: Gen 2 coverage 87.3%%/88.7%% (us-east1), 40.7%%/75.3%% (us-central1), 96.0%%/97.3%% (us-west1)")
	return res, nil
}

// runAttackCost measures the financial cost of the optimized campaign.
func runAttackCost(ctx Context) (*Result, error) {
	d, _ := ByID("cost")
	res := newResult(d)
	profiles := ctx.Profiles()

	// One trial per region: each campaign is billed against its own world.
	// The campaign's ledger meters the launch stage (billing deltas priced at
	// the published rates), so the trial just reads it back.
	type bill struct{ vcpuS, gbS, usd float64 }
	bills, err := runTrials(ctx, len(profiles), func(t Trial) (bill, error) {
		prof := profiles[t.Index]
		pl := faas.MustPlatform(t.Seed, prof)
		dc := pl.MustRegion(prof.Name)
		camp, err := ctx.attackerCampaign(dc, "account-1", attack.OptimizedStrategy{}, sandbox.Gen1)
		if err != nil {
			return bill{}, err
		}
		st := camp.Stats()
		return bill{st.VCPUSeconds, st.GBSeconds, st.USD}, nil
	})
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("Optimized campaign cost", "region", "vCPU-s", "GB-s", "USD")
	for ri, b := range bills {
		region := profiles[ri].Name
		tbl.AddRow(string(region), b.vcpuS, b.gbS, b.usd)
		res.Metrics["usd_"+string(region)] = b.usd
	}
	res.Tables = append(res.Tables, tbl)
	res.note("paper: campaign costs ≈ $24 (us-east1), $23 (us-central1), $27 (us-west1); idle time between launches is free")
	return res, nil
}
