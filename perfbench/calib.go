package main

import (
	"math"
	"time"
)

// Shared cloud hosts drift in speed: on a 2-vCPU Intel Xeon guest a fixed
// CPU-bound loop ran 25–30% slower for tens of seconds to minutes at a
// time, then recovered, and every workload's op times moved with it. More
// ops per run cannot average out a drift that outlasts the run, so every
// time metric is reported in reference ms: host time scaled by how fast a
// fixed calibration kernel ran, interleaved with the ops, in the same run.
//
// The kernel is the benchmark's own code, independent of the simulator, so
// no change to the repository can make it faster or slower. It is timed in
// CPU time of the benchmark's thread, the clock the ops are timed in
// (cpuclock.go), and runs once after every op: pointer chasing through a 128 KiB permutation, a binary
// heap, hashed map lookups and transcendental maths, all within the core's
// private caches, allocating nothing, so the garbage collector's work does
// not reach it. Run after an op, it also pays to refill those caches from
// the shared last-level cache, which is the part of the host the
// simulator's ops lean on too.

// calibRefNs is the kernel's typical median time between ops, in ns, on a
// 2-vCPU Intel Xeon guest (2 MiB L2 per core, shared L3). A run whose
// kernel median is exactly this reports host times unchanged.
const calibRefNs = 900_000

const (
	calibPerm  = 1 << 15 // int32s: 128 KiB
	calibChase = 30000
	calibHeap  = 2048
	calibKeys  = 1 << 10
	calibLook  = 10000
	calibMath  = 2000
)

// calibrator times the calibration kernel.
type calibrator struct {
	perm    []int32
	heap    []uint64
	table   map[uint64]int32
	keys    []uint64
	samples []time.Duration
	sink    uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{
		perm:  make([]int32, calibPerm),
		heap:  make([]uint64, 0, calibHeap),
		table: make(map[uint64]int32, calibKeys),
		keys:  make([]uint64, calibKeys),
	}
	// A single-cycle permutation (Sattolo's shuffle), so the chase visits
	// every slot.
	for i := range c.perm {
		c.perm[i] = int32(i)
	}
	x := uint64(7)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 11
	}
	for i := len(c.perm) - 1; i > 0; i-- {
		j := int(next() % uint64(i))
		c.perm[i], c.perm[j] = c.perm[j], c.perm[i]
	}
	for i := range c.keys {
		c.keys[i] = next()
		c.table[c.keys[i]] = int32(i)
	}
	return c
}

// sample runs the kernel once and records its time.
func (c *calibrator) sample() {
	t0 := threadCPU()
	var acc uint64

	p := int32(0)
	for i := 0; i < calibChase; i++ {
		p = c.perm[p]
	}
	acc += uint64(p)

	h := c.heap[:0]
	v := acc | 1
	for i := 0; i < calibHeap; i++ {
		v = v*6364136223846793005 + 1442695040888963407
		h = append(h, v>>11)
		for j := len(h) - 1; j > 0; {
			parent := (j - 1) / 2
			if h[parent] <= h[j] {
				break
			}
			h[parent], h[j] = h[j], h[parent]
			j = parent
		}
	}
	for len(h) > 0 {
		acc += h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for j := 0; ; {
			l, m := 2*j+1, j
			if l < len(h) && h[l] < h[m] {
				m = l
			}
			if r := l + 1; r < len(h) && h[r] < h[m] {
				m = r
			}
			if m == j {
				break
			}
			h[m], h[j] = h[j], h[m]
			j = m
		}
	}
	c.heap = h

	for i := 0; i < calibLook; i++ {
		acc += uint64(c.table[c.keys[(i*7919)%calibKeys]])
	}

	f := float64(acc%1000) + 1.5
	for i := 0; i < calibMath; i++ {
		f = math.Log(f+2) * math.Exp(-f/1000) * 10
	}
	c.sink += acc + uint64(f)
	c.samples = append(c.samples, threadCPU()-t0)
}

// calibWindow is how many kernel samples on each side of an op set the
// host speed its time is scaled by.
const calibWindow = 5

// localFactors turns host time into reference time op by op, for the phase
// of the run whose first sample has index from. Sample j of the phase is
// the one taken right after its j-th op, and the op's factor is calibRefNs
// over the median of samples j−calibWindow to j+calibWindow: about half a
// second of ops. Host speed also drifts within a run, for seconds at a
// time, and one factor for the whole run left the slow stretches in the
// tail: on campaign-loaded the spread of the p95 over five seeds was 15%
// with one factor per run and 3% with these.
func (c *calibrator) localFactors(from int) []float64 {
	s := c.samples[from:]
	f := make([]float64, len(s))
	for j := range s {
		lo, hi := max(0, j-calibWindow), min(len(s), j+calibWindow+1)
		f[j] = calibRefNs / float64(medianDur(s[lo:hi]).Nanoseconds())
	}
	return f
}

// factorSince turns host time into reference time for a phase of the run:
// calibRefNs over the median kernel time of the samples taken since sample
// index from. It is below 1 while the host runs slower than usual.
func (c *calibrator) factorSince(from int) float64 {
	return calibRefNs / float64(medianDur(c.samples[from:]).Nanoseconds())
}
