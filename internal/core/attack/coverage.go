package attack

import (
	"errors"
	"fmt"
	"time"

	"eaao/internal/core/coloc"
	"eaao/internal/core/fingerprint"
	"eaao/internal/faas"
	"eaao/internal/sandbox"
)

// Coverage is the outcome of a co-location measurement between an attacker
// footprint and a set of victim instances.
type Coverage struct {
	// VictimTotal is the number of victim instances measured.
	VictimTotal int
	// VictimCovered is how many of them share a verified host with at
	// least one attacker instance.
	VictimCovered int
	// AtLeastOne reports whether the attacker co-located with any victim
	// instance at all (the paper's headline "100% probability" metric).
	AtLeastOne bool
	// AttackerHosts is the number of verified distinct hosts holding
	// attacker instances.
	AttackerHosts int
	// SharedHosts is the number of verified hosts holding both attacker
	// and victim instances.
	SharedHosts int
	// Tests is the covert-channel test count the verification consumed.
	Tests int
	// FingerprintPredicted is how many probed victims the boot-time identity
	// prior places on an attacker host (a Gen 1 fingerprint shared with some
	// attacker representative) before any covert confirmation. Boot-time
	// identity is load-immune, so VictimCovered falling far below this
	// number is the signature of the covert channel — not the co-location —
	// failing; noise-hardened campaigns treat the gap as a ladder trigger.
	// Zero for Gen 2 measurements, whose coarse fingerprints over-predict.
	FingerprintPredicted int
	// Faults is the probe-fault recovery bookkeeping of this measurement;
	// all-zero on a fault-free platform.
	Faults CoverageFaults
}

// CoverageFaults meters probe-fault recovery during one coverage
// measurement. Skipped victims stay in Coverage.VictimTotal (they exist —
// the attacker merely failed to measure them) and count as uncovered, which
// is what makes an unrecovered fault a coverage loss rather than a silent
// misclassification.
type CoverageFaults struct {
	// ProbeRetries counts fingerprint collections re-issued after a fault.
	ProbeRetries int
	// AttackersSkipped and VictimsSkipped count instances still faulting
	// after the retry budget, left out of the verification.
	AttackersSkipped int
	VictimsSkipped   int
}

// CoverageOpts parameterizes MeasureCoverage.
type CoverageOpts struct {
	// Precision is the Gen 1 fingerprint rounding precision.
	Precision time.Duration
	// ProbeRetryBudget is how many times a probe-faulted fingerprint
	// collection is retried before the instance is skipped. At 0 (the
	// unhardened default) the first probe fault propagates as an error.
	ProbeRetryBudget int
}

// Fraction returns covered/total, or 0 when no victims were measured.
func (c Coverage) Fraction() float64 {
	if c.VictimTotal == 0 {
		return 0
	}
	return float64(c.VictimCovered) / float64(c.VictimTotal)
}

// String renders the coverage for reports.
func (c Coverage) String() string {
	return fmt.Sprintf("coverage %.1f%% (%d/%d victims, %d shared hosts)",
		100*c.Fraction(), c.VictimCovered, c.VictimTotal, c.SharedHosts)
}

// MeasureCoverage verifies attacker-victim co-location using the scalable
// methodology of §4.3: both sides are fingerprinted, grouped, and verified
// with the covert channel; a victim instance counts as covered when its
// verified cluster also contains an attacker instance. It also returns the
// attacker instances verified to share a host with at least one victim —
// the spies for the extraction step, and the input to a re-attack
// TargetBook.
//
// The attacker set may be large (thousands of instances); to keep the
// covert-channel budget proportional to hosts rather than instances, only
// one attacker instance per apparent host joins the verification, exactly as
// an attacker would do in practice.
//
// With a zero opts.ProbeRetryBudget the first probe fault fails the
// measurement; with a positive budget, probe-faulted fingerprint collections
// are retried and persistently faulting instances are skipped instead.
func MeasureCoverage(tester coloc.Tester, attacker, victims []*faas.Instance, opts CoverageOpts) (Coverage, []*faas.Instance, error) {
	precision := opts.Precision
	gen2 := false
	for _, inst := range attacker {
		g, err := inst.Guest()
		if err != nil {
			continue // terminated; skipped below anyway
		}
		if _, err := g.GuestKernelTSCHz(); err == nil {
			gen2 = true
		}
		break
	}

	// In Gen 1, fingerprints are near-perfect host identifiers, so one
	// attacker representative per apparent host suffices and keeps the
	// covert-channel budget proportional to hosts. Gen 2 fingerprints are
	// coarse (several hosts share one), so deduping would silently drop
	// attacker hosts; there the full attacker set joins the verification
	// and the verifier's internal splitting does the work.
	// Instances recycled away by the platform since the campaign ended are
	// dropped up front: their connection is gone and they can neither be
	// fingerprinted nor pressure the covert channel.
	live := make([]*faas.Instance, 0, len(attacker))
	for _, inst := range attacker {
		if inst.State() != faas.StateTerminated {
			live = append(live, inst)
		}
	}
	var faults CoverageFaults
	reps := live
	if !gen2 {
		var err error
		reps, err = dedupeByFingerprint(live, opts, &faults)
		if err != nil {
			return Coverage{}, nil, err
		}
	}

	// Victims recycled since they were launched are likewise excluded: the
	// attacker can only co-locate with instances that still exist.
	liveVictims := make([]*faas.Instance, 0, len(victims))
	for _, inst := range victims {
		if inst.State() != faas.StateTerminated {
			liveVictims = append(liveVictims, inst)
		}
	}
	victims = liveVictims

	// Skipped instances drop out of the verification here, so the labels
	// stay parallel to the probed slices: items[0:attackerCount] belong to
	// probedReps, the rest to probedVictims.
	items := make([]coloc.Item, 0, len(reps)+len(victims))
	probedReps := make([]*faas.Instance, 0, len(reps))
	for _, inst := range reps {
		it, ok, err := collectItem(inst, precision, gen2, opts.ProbeRetryBudget, &faults)
		if err != nil {
			return Coverage{}, nil, err
		}
		if !ok {
			faults.AttackersSkipped++
			continue
		}
		probedReps = append(probedReps, inst)
		items = append(items, it)
	}
	attackerCount := len(probedReps)
	probedVictims := make([]*faas.Instance, 0, len(victims))
	for _, inst := range victims {
		it, ok, err := collectItem(inst, precision, gen2, opts.ProbeRetryBudget, &faults)
		if err != nil {
			return Coverage{}, nil, err
		}
		if !ok {
			faults.VictimsSkipped++
			continue
		}
		probedVictims = append(probedVictims, inst)
		items = append(items, it)
	}

	cov := Coverage{VictimTotal: len(victims), Faults: faults}
	if len(items) == 0 {
		// Every instance faulted out: nothing to verify, nothing covered.
		return cov, nil, nil
	}

	// The identity prior, recorded before covert confirmation: Gen 1
	// fingerprints are (near-)exact host identifiers, so a victim sharing a
	// key with an attacker representative is predicted co-located. Gen 2
	// keys are coarse, so the prior is not meaningful there.
	if !gen2 {
		attackerKeys := make(map[fingerprint.Key]bool, attackerCount)
		for i := 0; i < attackerCount; i++ {
			attackerKeys[items[i].Fingerprint] = true
		}
		for v := attackerCount; v < len(items); v++ {
			if attackerKeys[items[v].Fingerprint] {
				cov.FingerprintPredicted++
			}
		}
	}

	opt := coloc.DefaultOptions()
	opt.AssumeNoFalseNegatives = gen2
	res, err := coloc.Verify(tester, items, opt)
	if err != nil {
		return Coverage{}, nil, err
	}

	cov.Tests = res.Tests
	attackerHosts := make(map[int]bool)
	for i := 0; i < attackerCount; i++ {
		attackerHosts[res.Labels[i]] = true
	}
	cov.AttackerHosts = len(attackerHosts)
	shared := make(map[int]bool)
	for v := 0; v < len(probedVictims); v++ {
		label := res.Labels[attackerCount+v]
		if attackerHosts[label] {
			cov.VictimCovered++
			shared[label] = true
		}
	}
	cov.SharedHosts = len(shared)
	cov.AtLeastOne = cov.VictimCovered > 0

	// Collect the attacker instances whose verified cluster holds a victim.
	victimLabels := make(map[int]bool)
	for v := 0; v < len(probedVictims); v++ {
		victimLabels[res.Labels[attackerCount+v]] = true
	}
	var spies []*faas.Instance
	for i := 0; i < attackerCount; i++ {
		if victimLabels[res.Labels[i]] {
			spies = append(spies, probedReps[i])
		}
	}
	return cov, spies, nil
}

// collectItem fingerprints one instance into a verification item, retrying
// probe faults up to budget times. ok=false (with nil error) means the
// instance kept faulting and is quarantined from this measurement; with
// budget 0 the first probe fault is returned as an error instead.
func collectItem(inst *faas.Instance, precision time.Duration, gen2 bool, budget int, faults *CoverageFaults) (coloc.Item, bool, error) {
	it, err := makeItem(inst, precision, gen2)
	for r := 0; err != nil && errors.Is(err, sandbox.ErrProbeFault) && r < budget; r++ {
		faults.ProbeRetries++
		it, err = makeItem(inst, precision, gen2)
	}
	if err == nil {
		return it, true, nil
	}
	if errors.Is(err, sandbox.ErrProbeFault) && budget > 0 {
		return coloc.Item{}, false, nil
	}
	return coloc.Item{}, false, err
}

// makeItem fingerprints one instance into a verification item.
func makeItem(inst *faas.Instance, precision time.Duration, gen2 bool) (coloc.Item, error) {
	g, err := inst.Guest()
	if err != nil {
		return coloc.Item{}, err
	}
	if gen2 {
		fp, err := fingerprint.CollectGen2(g)
		if err != nil {
			return coloc.Item{}, err
		}
		return coloc.Item{Inst: inst, Fingerprint: fp.Key()}, nil
	}
	s, err := fingerprint.CollectGen1(g)
	if err != nil {
		return coloc.Item{}, err
	}
	fp := fingerprint.Gen1FromSample(s, precision)
	return coloc.Item{Inst: inst, Fingerprint: fp.Key()}, nil
}

// dedupeByFingerprint keeps the first instance per apparent host (Gen 1
// fingerprints only). Instances that keep probe-faulting past the retry
// budget are dropped — they cannot represent a host they cannot identify.
func dedupeByFingerprint(insts []*faas.Instance, opts CoverageOpts, faults *CoverageFaults) ([]*faas.Instance, error) {
	seen := make(map[fingerprint.Key]bool, len(insts))
	var out []*faas.Instance
	for _, inst := range insts {
		it, ok, err := collectItem(inst, opts.Precision, false, opts.ProbeRetryBudget, faults)
		if err != nil {
			return nil, err
		}
		if !ok {
			faults.AttackersSkipped++
			continue
		}
		if !seen[it.Fingerprint] {
			seen[it.Fingerprint] = true
			out = append(out, inst)
		}
	}
	return out, nil
}

// ScaleEstimate is the result of the data-center scale exploration (Fig. 12).
type ScaleEstimate struct {
	// CumulativeByLaunch is the cumulative number of unique apparent hosts
	// after each launch, in launch order.
	CumulativeByLaunch []int
	// UniqueHosts is the number of distinct apparent hosts ever observed —
	// the paper's estimate, a lower bound on the true fleet size.
	UniqueHosts int
	// ChapmanEstimate is a capture-recapture point estimate of the
	// reachable fleet size, treating the first and second halves of the
	// exploration as two capture occasions. Zero when the recapture overlap
	// is empty. It refines the lower bound the way ecologists size animal
	// populations — and tends to sit between UniqueHosts and the truth.
	ChapmanEstimate float64
}

// chapman computes the Chapman estimator N̂ = (n1+1)(n2+1)/(m+1) − 1 for two
// capture occasions with n1 and n2 captures and m recaptures.
func chapman(n1, n2, m int) float64 {
	return float64(n1+1)*float64(n2+1)/float64(m+1) - 1
}

// EstimateScale explores a data center's size with services from several
// accounts, all launched with the optimized strategy; the union of apparent
// hosts across launches estimates the fleet size (a lower bound on truth).
func EstimateScale(dc *faas.DataCenter, accounts []string, servicesPerAccount int, cfg Config) (*ScaleEstimate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if servicesPerAccount <= 0 || len(accounts) == 0 {
		return nil, fmt.Errorf("attack: scale exploration needs accounts and services")
	}
	tracker := NewFootprintTracker(cfg.Precision)
	firstHalf := NewFootprintTracker(cfg.Precision)
	secondHalf := NewFootprintTracker(cfg.Precision)
	est := &ScaleEstimate{}
	sched := dc.Scheduler()

	type deployed struct {
		svc *faas.Service
	}
	var svcs []deployed
	for _, acct := range accounts {
		a := dc.Account(acct)
		for s := 0; s < servicesPerAccount; s++ {
			svcs = append(svcs, deployed{
				svc: a.DeployService(fmt.Sprintf("explore-%02d", s), faas.ServiceConfig{}),
			})
		}
	}
	for launch := 0; launch < cfg.Launches; launch++ {
		half := firstHalf
		if launch >= cfg.Launches/2 {
			half = secondHalf
		}
		for _, d := range svcs {
			insts, err := d.svc.Launch(cfg.InstancesPerLaunch)
			if err != nil {
				return nil, err
			}
			if _, err := tracker.Record(insts); err != nil {
				return nil, err
			}
			if _, err := half.Record(insts); err != nil {
				return nil, err
			}
			est.CumulativeByLaunch = append(est.CumulativeByLaunch, tracker.Cumulative())
			d.svc.Disconnect()
		}
		sched.Advance(cfg.Interval)
	}
	est.UniqueHosts = tracker.Cumulative()

	// Capture-recapture across the two halves of the exploration.
	f1 := firstHalf.Fingerprints()
	recaptured := 0
	for fp := range secondHalf.Fingerprints() {
		if f1[fp] {
			recaptured++
		}
	}
	if recaptured > 0 {
		est.ChapmanEstimate = chapman(firstHalf.Cumulative(), secondHalf.Cumulative(), recaptured)
	}
	return est, nil
}
