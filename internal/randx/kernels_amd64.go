//go:build amd64

package randx

// useVector selects the AVX2 block kernels: set where the CPU runs AVX2 and
// the OS saves its YMM state. CPUID.1:ECX carries OSXSAVE (bit 27) and AVX
// (bit 28), XCR0 the XMM and YMM state bits (1 and 2), and CPUID.(7,0):EBX
// AVX2 (bit 5). Tests clear it to run the Go path on the same machine.
var useVector = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	if c&(1<<27|1<<28) != 1<<27|1<<28 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}()

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (lo, hi uint32)

// belowAVX2 steps the whole blocks of four draws at the top of a run (feed
// words fv, tap words tv as long as fv) and returns how many kept draws
// were below th and how many draws were rejected (≥ keepBound).
//
//go:noescape
func belowAVX2(fv, tv []int64, th uint64) (below, rejected int)

// pairsAVX2 steps the whole blocks at the top of a run as two rounds each,
// a draw against tp then one against tq, and returns the words left below
// the blocks it took and the rounds whose first draw, second draw, and
// both draws were below their thresholds. It stops before the first block
// that holds a rejected draw and leaves that block's words unwritten.
//
//go:noescape
func pairsAVX2(fv, tv []int64, tp, tq uint64) (left, hp, hq, both int)

// belowBlocks runs the whole blocks at the top of one run through
// belowAVX2 and returns the words left below them.
func belowBlocks(fv, tv []int64, t uint64) (left, below, rejected int) {
	if !useVector {
		return len(fv), 0, 0
	}
	below, rejected = belowAVX2(fv, tv, t)
	return len(fv) % 4, below, rejected
}

// pairBlocks runs the whole blocks at the top of one run, which must start
// on a round, through pairsAVX2 and returns the words left below the
// blocks it took. Without the vector kernel it runs pairRounds.
func pairBlocks(fv, tv []int64, tp, tq uint64) (left, hp, hq, both int) {
	if !useVector {
		return pairRounds(fv, tv, tp, tq)
	}
	return pairsAVX2(fv, tv, tp, tq)
}
