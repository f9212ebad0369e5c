package experiments

import (
	"strings"

	"eaao/internal/core/attack"
	"eaao/internal/faas"
	"eaao/internal/report"
)

// runPolicyAblation reruns the optimized attack of §5.2 under each built-in
// placement policy in an otherwise identical world: the calibrated CloudRun
// extraction, the §6 random-uniform scheduling defense, and a least-loaded
// bin-packer. It reports the attacker's apparent footprint, verified victim
// coverage, the covert-channel verification budget that coverage consumed,
// and the victim's cold-host fraction (the image-locality price a policy
// makes ordinary tenants pay). A bounded placement trace is installed on
// each world to audit the decision stream the policy produced.
func runPolicyAblation(ctx Context) (*Result, error) {
	d, _ := ByID("policyablation")
	res := newResult(d)
	n := 150
	if !ctx.Quick {
		n = 400
	}

	policies := faas.Policies()
	type row struct {
		footprint   int
		cov         attack.Coverage
		coldFrac    float64
		traceBatch  int
		traceHosts  float64
		traceDrop   uint64
		traceEvents int
	}
	// All rows share one world seed so the comparison is controlled: the
	// policy is the only difference (the trial sub-seed is deliberately
	// unused).
	rows, err := runTrials(ctx, len(policies), func(t Trial) (row, error) {
		p := ablationProfile()
		p.Policy = policies[t.Index]
		pl := forkPlatform(ctx.Seed+21, p)
		dc := pl.MustRegion("ablation")
		ring := faas.NewTraceRing(4096)
		dc.SetPlacementTracer(ring)

		c, err := runCell(dc, ablationConfig(n, 4), attack.OptimizedStrategy{})
		if err != nil {
			return row{}, err
		}

		batches, hostSum := 0, 0
		for _, ev := range ring.Events() {
			if ev.Kind == faas.TracePlace {
				batches++
				hostSum += ev.Hosts
			}
		}
		meanHosts := 0.0
		if batches > 0 {
			meanHosts = float64(hostSum) / float64(batches)
		}
		return row{
			footprint:   c.stats.ApparentHosts,
			cov:         c.cov,
			coldFrac:    c.vicSvc.ColdHostFraction(),
			traceBatch:  batches,
			traceHosts:  meanHosts,
			traceDrop:   ring.Dropped(),
			traceEvents: ring.Len(),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("Placement-policy ablation: optimized attack per policy",
		"policy", "attacker footprint", "victim coverage", "verify tests", "victim cold-host frac")
	trc := report.NewTable("Placement trace (bounded ring, capacity 4096)",
		"policy", "events retained", "events dropped", "place batches", "mean hosts/batch")
	for i, pol := range policies {
		r := rows[i]
		key := strings.ReplaceAll(pol.Name(), "-", "_")
		tbl.AddRow(pol.Name(), r.footprint, r.cov.Fraction(), r.cov.Tests, r.coldFrac)
		trc.AddRow(pol.Name(), r.traceEvents, r.traceDrop, r.traceBatch, r.traceHosts)
		res.Metrics["coverage_"+key] = r.cov.Fraction()
		res.Metrics["footprint_"+key] = float64(r.footprint)
		res.Metrics["verify_tests_"+key] = float64(r.cov.Tests)
		res.Metrics["coldfrac_"+key] = r.coldFrac
	}
	res.Tables = append(res.Tables, tbl, trc)

	res.note("same world seed per row; the placement policy is the only variable")
	res.note("random-uniform removes the base/helper structure the optimized attack exploits (§6): coverage collapses while the victim's cold-host fraction — every launch mostly image-cold — is the defense's operational price")
	res.note("least-loaded has no per-account affinity to learn, and an attacker holding instances actively repels later launches: the victim lands on the hosts the attacker left emptiest — co-location would require launching alongside the victim, not ahead of it")
	return res, nil
}
