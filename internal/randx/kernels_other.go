//go:build !amd64

package randx

// Without the amd64 kernels every block goes through the Go loops.

var useVector = false

func belowBlocks(fv, tv []int64, t uint64) (left, below, rejected int) {
	return len(fv), 0, 0
}

func pairBlocks(fv, tv []int64, tp, tq uint64) (left, hp, hq, both int) {
	return pairRounds(fv, tv, tp, tq)
}
