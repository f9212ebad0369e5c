package faas

// hostScore pairs a host with a selection score. It is the working element of
// every noisy top-K scheduler decision (base pools, helper sets, ranked base
// selection); the scored buffer lives on the region so the per-launch hot
// path does not allocate, and it names the host by id, so the collector has
// nothing in it to trace.
type hostScore struct {
	id    HostID
	score float64
}

// ordering is the comparator for hostScore selection. Implementations are
// zero-size structs rather than func values so the generic topK/sortScores
// instantiations get direct, inlinable compare calls — comparator dispatch is
// the bulk of selection cost at fleet scale, and an indirect call per compare
// roughly doubles it.
type ordering interface {
	less(a, b *hostScore) bool
}

// byScore orders by score alone (rank noise makes exact ties have probability
// zero, so this matches the historical unstable full sort draw for draw).
type byScore struct{}

func (byScore) less(a, b *hostScore) bool { return a.score < b.score }

// byScoreThenID orders by score with host-id tie-breaking — the strict total
// order of every desirability-based noisy sample.
type byScoreThenID struct{}

func (byScoreThenID) less(a, b *hostScore) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.id < b.id
}

// topK partially orders s so that the k entries smallest under less occupy
// s[:k] in ascending order. It is the quickselect-then-sort-K replacement for
// fully sorting s: O(len(s) + k log k) instead of O(len(s) log len(s)).
//
// less must be a strict weak ordering; when it is a total order (or ties have
// probability zero, as with continuous score noise), the selected set and its
// order are exactly what a full sort would produce, so swapping topK for
// sort.Slice is output-identical.
func topK[L ordering](s []hostScore, k int, less L) {
	if k <= 0 {
		return
	}
	if k*8 <= len(s) {
		// Small k relative to the pool (dynamic resamples draw a handful of
		// hosts from the whole fleet): heap-select. A max-heap of the k best
		// lives in s[:k]; each remaining candidate costs one comparison
		// against the heap root (almost all fail) and only improvements pay
		// the O(log k) sift. Quickselect instead rewrites the whole buffer
		// several times over. Nearer k ≈ len(s) the ~k·ln(len/k) improvement
		// sifts erase the win, hence the threshold. The selected set and its
		// sorted order are identical either way — less is a total order.
		heapSelect(s, k, less)
		s = s[:k]
	} else if k < len(s) {
		quickselect(s, k, less)
		s = s[:k]
	}
	sortScores(s, less)
}

// heapSelect moves the k smallest entries under less into s[:k] (arbitrary
// order). s[:k] is kept as a max-heap; a candidate smaller than the root
// replaces it. Deterministic, no RNG, no allocation.
func heapSelect[L ordering](s []hostScore, k int, less L) {
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(s[:k], i, less)
	}
	for j := k; j < len(s); j++ {
		if less.less(&s[j], &s[0]) {
			s[0], s[j] = s[j], s[0]
			siftDown(s[:k], 0, less)
		}
	}
}

// siftDown restores the max-heap property of h rooted at i (children of i at
// 2i+1, 2i+2; parent greater than both under less).
func siftDown[L ordering](h []hostScore, i int, less L) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less.less(&h[c], &h[c+1]) {
			c++
		}
		if !less.less(&h[i], &h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sortScores sorts s ascending under less without allocating (sort.Slice
// costs several allocations per call via reflection, which matters on the
// per-launch hot path). less is a total order here — scores either carry
// continuous noise (ties have probability zero) or break ties by host id —
// so the result is the unique sorted order regardless of algorithm.
func sortScores[L ordering](s []hostScore, less L) {
	if len(s) <= 12 {
		// Insertion sort for small runs and recursion leaves.
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && less.less(&s[j], &s[j-1]); j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return
	}
	p := partition(s, 0, len(s)-1, less)
	sortScores(s[:p], less)
	sortScores(s[p+1:], less)
}

// quickselect partitions s so that the k smallest entries under less occupy
// s[:k] in arbitrary order. Deterministic (median-of-three pivots, no
// randomness): it must never consume simulation RNG draws.
func quickselect[L ordering](s []hostScore, k int, less L) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		p := partition(s, lo, hi, less)
		switch {
		case p == k-1:
			return
		case p > k-1:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
}

// partition is a Lomuto partition of s[lo:hi+1] around a median-of-three
// pivot; it returns the pivot's final index.
func partition[L ordering](s []hostScore, lo, hi int, less L) int {
	mid := lo + (hi-lo)/2
	if less.less(&s[mid], &s[lo]) {
		s[mid], s[lo] = s[lo], s[mid]
	}
	if less.less(&s[hi], &s[mid]) {
		s[hi], s[mid] = s[mid], s[hi]
		if less.less(&s[mid], &s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
	}
	// Median now at mid; use it as the pivot from the hi slot. The pivot is
	// compared in place (s[hi] is untouched until the final swap) — copying
	// it to a local would make it escape through the less callback and cost
	// one heap allocation per partition call.
	s[mid], s[hi] = s[hi], s[mid]
	i := lo
	for j := lo; j < hi; j++ {
		if less.less(&s[j], &s[hi]) {
			s[i], s[j] = s[j], s[i]
			i++
		}
	}
	s[i], s[hi] = s[hi], s[i]
	return i
}

// selectRank returns the entry of rank k (0-indexed, ascending under less)
// without ordering anything else: a single quickselect pass, O(len(s)).
func selectRank[L ordering](s []hostScore, k int, less L) HostID {
	quickselect(s, k+1, less)
	best := 0
	for i := 1; i <= k; i++ {
		if less.less(&s[best], &s[i]) {
			best = i
		}
	}
	return s[best].id
}
