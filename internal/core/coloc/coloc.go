// Package coloc implements the paper's scalable instance co-location
// verification methodology (§4.3), plus the two conventional baselines it is
// compared against (pairwise covert-channel testing and Single Instance
// Elimination).
//
// The scalable method verifies N instances in O(M) covert-channel tests,
// where M is the number of occupied hosts, instead of the O(N²) of pairwise
// testing:
//
//  1. Group instances by host fingerprint. Accurate fingerprints make each
//     group a candidate host.
//  2. Verify each group internally with n-way CTests at contention threshold
//     m, in sub-groups of at most 2m−1 so results are unambiguous. Groups
//     that contained false positives split into verified clusters.
//  3. Pick one representative per verified cluster and test them all at
//     once; any positives are false negatives (co-located instances whose
//     fingerprints differ), which are then refined pairwise and their
//     clusters merged. Gen 2 fingerprints cannot produce false negatives, so
//     this step is skipped and step 2 runs fully in parallel.
package coloc

import (
	"fmt"
	"time"

	"eaao/internal/core/covert"
	"eaao/internal/core/fingerprint"
	"eaao/internal/faas"
)

// Item is one instance under verification, tagged with its fingerprint.
type Item struct {
	// Inst is the live instance.
	Inst *faas.Instance
	// Fingerprint is the comparable grouping key (fingerprint.Key is a
	// fixed-size struct, so grouping never allocates or hashes strings).
	Fingerprint fingerprint.Key
}

// Tester is the covert-channel capability verification needs: n-way and
// pairwise testing plus the cost counters. *covert.Tester satisfies it; the
// indirection lets callers hand in instrumented testers (e.g. the attack
// campaign engine's ledger-metered tester) without this package knowing.
type Tester interface {
	CTest(instances []*faas.Instance, m int) ([]bool, error)
	PairTest(a, b *faas.Instance) (bool, error)
	Config() covert.Config
	Stats() covert.Stats
}

// Options tunes the verification.
type Options struct {
	// M is the contention threshold (≥ 2). Sub-groups of up to 2M−1
	// instances are verified in a single test. The paper uses M = 2.
	M int
	// AssumeNoFalseNegatives skips the cross-cluster false-negative sweep.
	// Sound for Gen 2 fingerprints (§4.5).
	AssumeNoFalseNegatives bool
}

// DefaultOptions returns the paper's configuration (m = 2).
func DefaultOptions() Options { return Options{M: 2} }

// Result is the outcome of a verification run.
type Result struct {
	// Clusters are the verified co-location classes, in first-seen order;
	// every input instance appears in exactly one cluster.
	Clusters [][]*faas.Instance
	// Labels assigns each input item its cluster index.
	Labels []int
	// Tests is the number of covert-channel tests consumed.
	Tests int
	// SerializedTime is the virtual wall-clock the tests would take fully
	// serialized (tests × test duration).
	SerializedTime time.Duration
	// FalsePositiveSplits counts fingerprint groups that step 2 split.
	FalsePositiveSplits int
	// FalseNegativeMerges counts cluster pairs merged by step 3.
	FalseNegativeMerges int
	// PairwiseFallbacks counts groups that fell back to pairwise testing.
	PairwiseFallbacks int
}

// verifier carries the run state.
type verifier struct {
	tester Tester
	opt    Options
	res    *Result
	// instBuf is the scratch instance slice handed to CTest; reused across
	// every small-group test of the run (CTest never retains it).
	instBuf []*faas.Instance
	// testsBefore is the tester's test count on entry: a tester shared
	// across runs keeps counting, and Result.Tests reports this run's share.
	testsBefore int
}

// Verify runs the scalable methodology over the items.
func Verify(tester Tester, items []Item, opt Options) (*Result, error) {
	if opt.M < 2 {
		return nil, fmt.Errorf("coloc: threshold M=%d, need at least 2", opt.M)
	}
	v := &verifier{tester: tester, opt: opt, res: &Result{}, testsBefore: tester.Stats().Tests}

	// Step 1: group by fingerprint, preserving first-seen order.
	groupOf := make(map[fingerprint.Key][]int)
	var order []fingerprint.Key
	for i, it := range items {
		if _, seen := groupOf[it.Fingerprint]; !seen {
			order = append(order, it.Fingerprint)
		}
		groupOf[it.Fingerprint] = append(groupOf[it.Fingerprint], i)
	}

	// Step 2: verify each group internally.
	var clusters [][]int
	for _, fp := range order {
		parts, err := v.verifyGroup(items, groupOf[fp])
		if err != nil {
			return nil, err
		}
		if len(parts) > 1 {
			v.res.FalsePositiveSplits++
		}
		clusters = append(clusters, parts...)
	}

	// Step 3: find false negatives across clusters.
	if !v.opt.AssumeNoFalseNegatives && len(clusters) > 1 {
		var err error
		clusters, err = v.mergeFalseNegatives(items, clusters)
		if err != nil {
			return nil, err
		}
	}

	v.finish(items, clusters)
	return v.res, nil
}

// verifyGroup verifies one fingerprint group (indices into items), returning
// verified clusters.
func (v *verifier) verifyGroup(items []Item, group []int) ([][]int, error) {
	limit := covert.MaxGroupSize(v.opt.M)
	if len(group) <= limit {
		return v.testSmallGroup(items, group)
	}

	// Split into sub-groups of at most 2m−1 and test each.
	var chunks [][]int
	for start := 0; start < len(group); start += limit {
		end := start + limit
		if end > len(group) {
			end = len(group)
		}
		chunks = append(chunks, group[start:end])
	}
	allCohesive := true
	chunkClusters := make([][][]int, len(chunks))
	for ci, chunk := range chunks {
		parts, err := v.testSmallGroup(items, chunk)
		if err != nil {
			return nil, err
		}
		chunkClusters[ci] = parts
		if len(parts) != 1 {
			allCohesive = false
		}
	}

	if !allCohesive {
		// The paper's simplification: mixed results inside a large group
		// fall back to pairwise testing of the whole group.
		v.res.PairwiseFallbacks++
		return v.pairwiseGroup(items, group)
	}

	// Every chunk is internally co-located; hierarchically verify one
	// representative per chunk to merge chunks sharing a host.
	reps := make([]int, len(chunks))
	for ci, chunk := range chunks {
		reps[ci] = chunk[0]
	}
	repClusters, err := v.verifyGroup(items, reps)
	if err != nil {
		return nil, err
	}
	var out [][]int
	for _, rc := range repClusters {
		var merged []int
		for _, rep := range rc {
			for ci, chunk := range chunks {
				if reps[ci] == rep {
					merged = append(merged, chunk...)
				}
			}
		}
		out = append(out, merged)
	}
	return out, nil
}

// testSmallGroup runs one CTest over a group of at most 2m−1 instances and
// decodes the unambiguous outcome.
func (v *verifier) testSmallGroup(items []Item, group []int) ([][]int, error) {
	if len(group) == 1 {
		return [][]int{{group[0]}}, nil
	}
	insts := v.instBuf[:0]
	for _, idx := range group {
		insts = append(insts, items[idx].Inst)
	}
	v.instBuf = insts[:0]
	pos, err := v.tester.CTest(insts, v.opt.M)
	if err != nil {
		return nil, err
	}
	var positives, negatives []int
	for i, p := range pos {
		if p {
			positives = append(positives, group[i])
		} else {
			negatives = append(negatives, group[i])
		}
	}
	var out [][]int
	if len(positives) >= v.opt.M {
		// ≤ 2m−1 participants: all positives share one host.
		out = append(out, positives)
	} else {
		// Fewer positives than the threshold can ever produce: noise.
		// Treat them as singletons.
		for _, idx := range positives {
			out = append(out, []int{idx})
		}
	}
	for _, idx := range negatives {
		out = append(out, []int{idx})
	}
	return out, nil
}

// pairwiseGroup exhaustively pair-tests a group and unions positives.
func (v *verifier) pairwiseGroup(items []Item, group []int) ([][]int, error) {
	uf := newUnionFind(len(group))
	for i := 0; i < len(group); i++ {
		for j := i + 1; j < len(group); j++ {
			pos, err := v.tester.PairTest(items[group[i]].Inst, items[group[j]].Inst)
			if err != nil {
				return nil, err
			}
			if pos {
				uf.union(i, j)
			}
		}
	}
	return uf.clusters(group), nil
}

// mergeFalseNegatives implements step 3: one representative per cluster, all
// tested at once; positive representatives are refined pairwise and their
// clusters merged.
func (v *verifier) mergeFalseNegatives(items []Item, clusters [][]int) ([][]int, error) {
	reps := make([]*faas.Instance, len(clusters))
	for i, c := range clusters {
		reps[i] = items[c[0]].Inst
	}
	pos, err := v.tester.CTest(reps, 2)
	if err != nil {
		return nil, err
	}
	var hot []int // cluster indices whose representative tested positive
	for i, p := range pos {
		if p {
			hot = append(hot, i)
		}
	}
	if len(hot) < 2 {
		return clusters, nil
	}
	// Refine: pairwise among the positive representatives only.
	uf := newUnionFind(len(clusters))
	for a := 0; a < len(hot); a++ {
		for b := a + 1; b < len(hot); b++ {
			p, err := v.tester.PairTest(reps[hot[a]], reps[hot[b]])
			if err != nil {
				return nil, err
			}
			if p {
				uf.union(hot[a], hot[b])
				v.res.FalseNegativeMerges++
			}
		}
	}
	// Rebuild clusters by union-find root.
	byRoot := make(map[int][]int)
	var roots []int
	for i, c := range clusters {
		r := uf.find(i)
		if _, seen := byRoot[r]; !seen {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], c...)
	}
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out, nil
}

// finish materializes the Result from index clusters.
func (v *verifier) finish(items []Item, clusters [][]int) {
	v.res.Labels = make([]int, len(items))
	v.res.Clusters = make([][]*faas.Instance, 0, len(clusters))
	for ci, c := range clusters {
		insts := make([]*faas.Instance, 0, len(c))
		for _, idx := range c {
			insts = append(insts, items[idx].Inst)
			v.res.Labels[idx] = ci
		}
		v.res.Clusters = append(v.res.Clusters, insts)
	}
	v.res.Tests = v.tester.Stats().Tests - v.testsBefore
	v.res.SerializedTime = time.Duration(v.res.Tests) * v.tester.Config().TestDuration
}

// unionFind is a plain disjoint-set structure over [0, n).
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[rb] = ra
	}
}

// clusters groups the external ids by union-find class, in first-seen order.
func (u *unionFind) clusters(ids []int) [][]int {
	byRoot := make(map[int][]int)
	var roots []int
	for i, id := range ids {
		r := u.find(i)
		if _, seen := byRoot[r]; !seen {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], id)
	}
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}
