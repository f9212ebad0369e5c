// Command eaao runs the paper-reproduction experiments.
//
// Usage:
//
//	eaao list                      # list every reproducible artifact
//	eaao run fig4 [fig5 ...]       # regenerate specific figures/tables
//	eaao run all                   # regenerate everything
//	eaao -faults 0.05 attack -recovery faults  # ad-hoc campaign (global flags go first)
//
// Flags:
//
//	-seed N    root seed (default 9)
//	-quick     reduced scale (~4x smaller fleet, fewer reps)
//	-big       headroom scale for the scale experiment (80k hosts, 640 tenants, >1M instances)
//	-jobs N    worker-pool width for trial repetitions (default NumCPU; 1 = sequential)
//	-parallel  run whole experiments concurrently through the same bounded pool
//	-policy P  override every region's placement policy (cloudrun, random-uniform, least-loaded)
//	-faults L  inject deterministic faults at uniform level L in [0,1] (0 = fault-free)
//	-load U    background-tenant traffic at target utilization U in [0, 1.5] (0 = quiet fleet)
//	-csv       also print each table as CSV
//	-cpuprofile F  write a CPU profile of the run to F (runtime/pprof)
//	-memprofile F  write an allocation profile at exit to F
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"eaao"
)

func main() {
	// All work happens in run so that deferred teardown (profile writers)
	// executes before the process exits.
	os.Exit(run())
}

func run() int {
	seed := flag.Uint64("seed", 9, "root random seed")
	quick := flag.Bool("quick", false, "reduced scale for fast runs")
	big := flag.Bool("big", false, "headroom scale for the scale experiment (80k hosts, 640 tenants, >1M instances created)")
	csv := flag.Bool("csv", false, "print tables as CSV too")
	svgDir := flag.String("svg", "", "directory to write figure SVGs into")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of text")
	parallel := flag.Bool("parallel", false, "run experiments concurrently (each owns its own simulated world)")
	jobs := flag.Int("jobs", runtime.NumCPU(), "max concurrent trial workers (1 = fully sequential)")
	policyName := flag.String("policy", "", "override the placement policy in every region (cloudrun, random-uniform, least-loaded)")
	faultLevel := flag.Float64("faults", 0, "uniform injected fault level in [0,1] (0 = fault-free; scales launch, preemption, channel and probe fault rates together)")
	load := flag.Float64("load", 0, "background-tenant target utilization in [0, 1.5] (0 = quiet fleet, byte-identical to a traffic-free build)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) > 0 && (args[0] == "run" || args[0] == "list") {
		// Accept global flags after the subcommand too (flag.Parse stops at
		// the first positional, so `eaao run fig11a -quick` would otherwise
		// read -quick as an experiment id). The attack subcommand keeps its
		// own flag set and is left alone.
		args = append(args[:1], reparseTail(args[1:])...)
	}

	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eaao: %v\n", err)
			return 1
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeMemProfile(*memProfile); err != nil {
				fmt.Fprintf(os.Stderr, "eaao: %v\n", err)
			}
		}()
	}

	var policy eaao.PlacementPolicy
	if *policyName != "" {
		var err error
		policy, err = eaao.PlacementPolicyByName(*policyName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eaao: %v\n", err)
			return 2
		}
	}

	faults := eaao.UniformFaultPlan(*faultLevel)
	if err := faults.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "eaao: %v\n", err)
		return 2
	}

	if *load < 0 || *load > 1.5 {
		fmt.Fprintf(os.Stderr, "eaao: -load %v out of range [0, 1.5]\n", *load)
		return 2
	}

	if len(args) == 0 {
		usage()
		return 2
	}

	switch args[0] {
	case "attack":
		if err := runAttack(args[1:], *seed, *quick, policy, faults, *load); err != nil {
			fmt.Fprintf(os.Stderr, "eaao attack: %v\n", err)
			return 1
		}
	case "list":
		for _, d := range eaao.Experiments() {
			fmt.Printf("%-12s %-55s %s\n", d.ID, d.Title, d.PaperRef)
		}
	case "run":
		ids := args[1:]
		if len(ids) == 0 {
			fmt.Fprintln(os.Stderr, "eaao run: no experiment ids (try 'eaao list' or 'eaao run all')")
			return 2
		}
		if len(ids) == 1 && ids[0] == "all" {
			ids = nil
			for _, d := range eaao.Experiments() {
				ids = append(ids, d.ID)
			}
		}
		ctx := eaao.ExperimentContext{Seed: *seed, Quick: *quick, Big: *big, Jobs: *jobs, Policy: policy, Faults: faults, Load: *load}

		// Each experiment builds its own deterministic world, so runs are
		// independent and can proceed concurrently; results print in the
		// requested order either way. With -parallel the experiments fan
		// out through the bounded trial pool (-jobs workers) and each runs
		// sequentially inside; without it, experiments run one at a time
		// and each parallelizes its own trial repetitions.
		var outcomes []eaao.ExperimentOutcome
		if *parallel {
			outcomes = eaao.RunExperiments(ids, ctx)
		} else {
			for _, id := range ids {
				res, err := eaao.RunExperiment(id, ctx)
				outcomes = append(outcomes, eaao.ExperimentOutcome{ID: id, Res: res, Err: err})
			}
		}
		failures := 0
		for _, oc := range outcomes {
			if oc.Err != nil {
				fmt.Fprintf(os.Stderr, "eaao: %s: %v\n", oc.ID, oc.Err)
				failures++
				continue
			}
			res := oc.Res
			if *jsonOut {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				if err := enc.Encode(res); err != nil {
					fmt.Fprintf(os.Stderr, "eaao: %s: %v\n", oc.ID, err)
					failures++
					continue
				}
			} else {
				fmt.Print(res.String())
			}
			if *csv {
				for _, t := range res.Tables {
					fmt.Println(t.CSV())
				}
			}
			if *svgDir != "" {
				if err := writeSVGs(*svgDir, res); err != nil {
					fmt.Fprintf(os.Stderr, "eaao: %s: %v\n", oc.ID, err)
					failures++
					continue
				}
			}
			if !*jsonOut {
				elapsed := time.Duration(res.Metrics["runtime_wall_s"] * float64(time.Second))
				fmt.Printf("(%s completed in %v)\n\n", oc.ID, elapsed.Round(time.Millisecond))
			}
		}
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "eaao: %d of %d experiments failed\n", failures, len(outcomes))
			return 1
		}
	default:
		usage()
		return 2
	}
	return 0
}

// reparseTail separates positional arguments from global flags that appear
// after the subcommand, feeding each flag run back through the command-line
// flag set. Returns the positionals in order.
func reparseTail(args []string) []string {
	var pos []string
	for len(args) > 0 {
		a := args[0]
		if len(a) > 1 && a[0] == '-' {
			flag.CommandLine.Parse(args)
			args = flag.CommandLine.Args()
			continue
		}
		pos = append(pos, a)
		args = args[1:]
	}
	return pos
}

// writeSVGs renders every figure of a result into dir. Figures whose x axis
// spans several orders of magnitude (the p_boot sweep) use a log scale.
func writeSVGs(dir string, res *eaao.ExperimentResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, fig := range res.Figures {
		logX := false
		for _, s := range fig.Series {
			if len(s.X) >= 2 && s.X[0] > 0 && s.X[len(s.X)-1]/s.X[0] >= 1000 {
				logX = true
			}
		}
		path := filepath.Join(dir, fig.ID+".svg")
		if err := os.WriteFile(path, []byte(fig.SVG(720, 400, logX)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `eaao — "Everywhere All at Once" (ASPLOS 2024) reproduction

usage:
  eaao [flags] list
  eaao [flags] run <id>... | all
  eaao [flags] [-faults L] [-load U] attack [-region R] [-strategy naive|optimized|adaptive]
       [-channel rng|llc|membus|combined] [-recovery none|faults|noise] ...
  eaao [flags] attack -regions R1,R2,... [-planner static-even|proportional|adaptive]

flags:
`)
	flag.PrintDefaults()
}
