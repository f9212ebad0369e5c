package coloc

import (
	"time"

	"eaao/internal/faas"
)

// VerifyPairwise is the conventional O(N²) baseline [41, 54, 59]: every pair
// of instances is covert-channel tested, serialized to avoid interference.
func VerifyPairwise(tester Tester, instances []*faas.Instance) (*Result, error) {
	before := tester.Stats().Tests
	uf := newUnionFind(len(instances))
	for i := 0; i < len(instances); i++ {
		for j := i + 1; j < len(instances); j++ {
			pos, err := tester.PairTest(instances[i], instances[j])
			if err != nil {
				return nil, err
			}
			if pos {
				uf.union(i, j)
			}
		}
	}
	return baselineResult(tester, instances, uf, before), nil
}

// VerifySIE is pairwise testing with the Single Instance Elimination
// pre-filter of İnci et al. [41]: first test all instances simultaneously
// and drop the negatives (instances co-located with nobody), then pair-test
// the survivors. In FaaS environments the orchestrator stacks ~10 instances
// per host, so virtually everything survives the filter and SIE saves almost
// nothing (§4.3).
func VerifySIE(tester Tester, instances []*faas.Instance) (*Result, error) {
	before := tester.Stats().Tests
	uf := newUnionFind(len(instances))
	survivors := make([]int, 0, len(instances))
	if len(instances) > 1 {
		pos, err := tester.CTest(instances, 2)
		if err != nil {
			return nil, err
		}
		for i, p := range pos {
			if p {
				survivors = append(survivors, i)
			}
		}
	}
	for a := 0; a < len(survivors); a++ {
		for b := a + 1; b < len(survivors); b++ {
			i, j := survivors[a], survivors[b]
			pos, err := tester.PairTest(instances[i], instances[j])
			if err != nil {
				return nil, err
			}
			if pos {
				uf.union(i, j)
			}
		}
	}
	return baselineResult(tester, instances, uf, before), nil
}

// baselineResult assembles a Result for the serialized baselines.
func baselineResult(tester Tester, instances []*faas.Instance, uf *unionFind, testsBefore int) *Result {
	ids := make([]int, len(instances))
	for i := range ids {
		ids[i] = i
	}
	res := &Result{Labels: make([]int, len(instances))}
	for ci, c := range uf.clusters(ids) {
		insts := make([]*faas.Instance, 0, len(c))
		for _, idx := range c {
			insts = append(insts, instances[idx])
			res.Labels[idx] = ci
		}
		res.Clusters = append(res.Clusters, insts)
	}
	res.Tests = tester.Stats().Tests - testsBefore
	res.SerializedTime = time.Duration(res.Tests) * tester.Config().TestDuration
	return res
}

// PairwiseTestCount returns the number of tests pairwise verification of n
// instances requires (the paper's 319,600 for n = 800).
func PairwiseTestCount(n int) int { return n * (n - 1) / 2 }
