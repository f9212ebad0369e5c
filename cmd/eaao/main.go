// Command eaao runs the paper-reproduction experiments.
//
// Usage:
//
//	eaao list                      # list every reproducible artifact
//	eaao run fig4 [fig5 ...]       # regenerate specific figures/tables
//	eaao run all                   # regenerate everything
//	eaao -faults 0.05 attack -recovery faults  # ad-hoc campaign (global flags go first)
//
// Run `eaao -h` for the global flags and `eaao attack -h` for the attack's.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"eaao"
)

func main() {
	// All work happens in run so that deferred teardown (profile writers)
	// executes before the process exits.
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run runs the command line args (without the program name) and returns the
// exit code: 0 on success, 1 when a run fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eaao", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 9, "root random seed")
	quick := fs.Bool("quick", false, "reduced scale for fast runs")
	big := fs.Bool("big", false, "headroom scale for the scale experiment (80k hosts, 640 tenants, >1M instances created)")
	csv := fs.Bool("csv", false, "print tables as CSV too")
	svgDir := fs.String("svg", "", "directory to write figure SVGs into")
	jsonOut := fs.Bool("json", false, "emit results as JSON instead of text")
	jobs := fs.Int("jobs", runtime.NumCPU(), "max concurrent trial workers (1 = fully sequential)")
	policyName := fs.String("policy", "", "override the placement policy in every region (cloudrun, random-uniform, least-loaded)")
	faultLevel := fs.Float64("faults", 0, "uniform injected fault level in [0,1] (0 = fault-free; scales launch, preemption, channel and probe fault rates together)")
	load := fs.Float64("load", 0, "background-tenant target utilization in [0, 1.5] (0 = quiet fleet, byte-identical to a traffic-free build)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		return flagExit(err)
	}

	args = fs.Args()
	if len(args) > 0 && (args[0] == "run" || args[0] == "list") {
		// Accept global flags after the subcommand too (Parse stops at the
		// first positional, so `eaao run fig11a -quick` would otherwise read
		// -quick as an experiment id). The attack subcommand keeps its own
		// flag set and is left alone.
		tail, err := reparseTail(fs, args[1:])
		if err != nil {
			return flagExit(err)
		}
		args = append(args[:1], tail...)
	}

	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "eaao: %v\n", err)
			return 1
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeMemProfile(*memProfile); err != nil {
				fmt.Fprintf(stderr, "eaao: %v\n", err)
			}
		}()
	}

	var policy eaao.PlacementPolicy
	if *policyName != "" {
		var err error
		policy, err = eaao.PlacementPolicyByName(*policyName)
		if err != nil {
			fmt.Fprintf(stderr, "eaao: %v\n", err)
			return 2
		}
	}

	faults := eaao.UniformFaultPlan(*faultLevel)
	if err := faults.Validate(); err != nil {
		fmt.Fprintf(stderr, "eaao: %v\n", err)
		return 2
	}

	if *load < 0 || *load > 1.5 {
		fmt.Fprintf(stderr, "eaao: -load %v out of range [0, 1.5]\n", *load)
		return 2
	}

	if len(args) == 0 {
		usage(fs)
		return 2
	}

	switch args[0] {
	case "attack":
		if err := runAttack(stdout, stderr, args[1:], *seed, *quick, policy, faults, *load); err != nil {
			if errors.Is(err, errUsage) {
				return flagExit(err)
			}
			fmt.Fprintf(stderr, "eaao attack: %v\n", err)
			return 1
		}
	case "list":
		for _, d := range eaao.Experiments() {
			fmt.Fprintf(stdout, "%-12s %-55s %s\n", d.ID, d.Title, d.PaperRef)
		}
	case "run":
		ids := args[1:]
		if len(ids) == 0 {
			fmt.Fprintln(stderr, "eaao run: no experiment ids (try 'eaao list' or 'eaao run all')")
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
		// independent: they fan out through the bounded trial pool (-jobs
		// workers, shared between experiments and their trials), and results
		// print in the requested order.
		outcomes := eaao.RunExperiments(ids, ctx)
		failures := 0
		for _, oc := range outcomes {
			if oc.Err != nil {
				fmt.Fprintf(stderr, "eaao: %s: %v\n", oc.ID, oc.Err)
				failures++
				continue
			}
			res := oc.Res
			if *jsonOut {
				enc := json.NewEncoder(stdout)
				enc.SetIndent("", "  ")
				if err := enc.Encode(res); err != nil {
					fmt.Fprintf(stderr, "eaao: %s: %v\n", oc.ID, err)
					failures++
					continue
				}
			} else {
				fmt.Fprint(stdout, res.String())
			}
			if *csv {
				for _, t := range res.Tables {
					fmt.Fprintln(stdout, t.CSV())
				}
			}
			if *svgDir != "" {
				if err := writeSVGs(stderr, *svgDir, res); err != nil {
					fmt.Fprintf(stderr, "eaao: %s: %v\n", oc.ID, err)
					failures++
					continue
				}
			}
			if !*jsonOut {
				elapsed := time.Duration(res.Metrics["runtime_wall_s"] * float64(time.Second))
				fmt.Fprintf(stdout, "(%s completed in %v)\n\n", oc.ID, elapsed.Round(time.Millisecond))
			}
		}
		if failures > 0 {
			fmt.Fprintf(stderr, "eaao: %d of %d experiments failed\n", failures, len(outcomes))
			return 1
		}
	default:
		usage(fs)
		return 2
	}
	return 0
}

// reparseTail separates positional arguments from global flags that appear
// after the subcommand, feeding each flag run back through fs. Returns the
// positionals in order.
func reparseTail(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for len(args) > 0 {
		a := args[0]
		if len(a) > 1 && a[0] == '-' {
			if err := fs.Parse(args); err != nil {
				return nil, err
			}
			args = fs.Args()
			continue
		}
		pos = append(pos, a)
		args = args[1:]
	}
	return pos, nil
}

// errUsage marks a subcommand flag error its flag set has already reported.
var errUsage = errors.New("usage")

// flagExit maps a flag-parsing error to the exit code flag.ExitOnError
// would have used: 0 for -h/-help, 2 otherwise.
func flagExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// writeSVGs renders every figure of a result into dir. Figures whose x axis
// spans several orders of magnitude (the p_boot sweep) use a log scale.
func writeSVGs(stderr io.Writer, dir string, res *eaao.ExperimentResult) error {
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
		fmt.Fprintf(stderr, "wrote %s\n", path)
	}
	return nil
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(fs.Output(), `eaao — "Everywhere All at Once" (ASPLOS 2024) reproduction

usage:
  eaao [flags] list
  eaao [flags] run <id>... | all
  eaao [flags] [-faults L] [-load U] attack [-region R] [-strategy naive|optimized|adaptive]
       [-channel rng|llc|membus|combined] [-recovery none|faults|noise] ...
  eaao [flags] attack -regions R1,R2,... [-planner static-even|proportional|adaptive]

flags:
`)
	fs.PrintDefaults()
}
