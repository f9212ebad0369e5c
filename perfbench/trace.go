package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"eaao/internal/core/attack"
	"eaao/internal/core/covert"
	"eaao/internal/faas"
	"eaao/internal/randx"
	"eaao/internal/simtime"
)

// Layers are the span names, one per boundary the benchmark times.
const (
	layerOp = iota
	layerRestore
	layerLaunch
	layerWave
	layerHold
	layerVerify
	layerCTest
	numLayers
)

var layerNames = [numLayers]string{"op", "faas.restore", "attack.launch", "attack.wave", "simtime.hold", "attack.verify", "covert.ctest"}

// keptOps is how many traced ops keep every span for the spans file; later
// ops are only aggregated. verify-gen2 runs up to 11k CTests an op, so
// keeping every span of every op would grow the heap the run measures.
const keptOps = 5

// span is one timed call across a layer boundary.
type span struct {
	layer      int
	start, end time.Duration // since the tracer's epoch
	parent     int           // index into tracer.spans, -1 for an op root
	op         int
}

// openSpan is a span not yet ended; rec is its index in tracer.spans, or -1
// when its op is past keptOps.
type openSpan struct {
	layer int
	start time.Duration
	rec   int
}

// tracer times the layer boundaries of the traced run. Per layer it sums the
// total time, the self time (a span's duration minus the part its children
// cover) and the span count; the spans of the first keptOps ops are kept in
// memory and written out when the run ends. A nil *tracer records nothing,
// so the untraced path pays one nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []span
	open  []openSpan
	op    int

	total, self [numLayers]time.Duration
	count       [numLayers]int

	// Counters taken at the same boundaries as the spans.
	holdEvents  uint64 // kernel events executed inside sink Hold spans
	pendingPeak int    // largest scheduler queue seen at a wave boundary
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1} }

// begin opens a span as a child of the innermost open span and returns its
// depth, which end takes. A span opened with nothing open starts a new op.
func (t *tracer) begin(layer int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].rec
	} else {
		t.op++
	}
	rec := -1
	if t.op < keptOps {
		t.spans = append(t.spans, span{layer: layer, start: now, parent: parent, op: t.op})
		rec = len(t.spans) - 1
	}
	t.open = append(t.open, openSpan{layer: layer, start: now, rec: rec})
	return len(t.open) - 1
}

// end closes the span at depth and every span opened inside it that is
// still open.
func (t *tracer) end(depth int) {
	if t == nil || depth < 0 {
		return
	}
	now := time.Since(t.epoch)
	for len(t.open) > depth {
		s := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		d := now - s.start
		t.total[s.layer] += d
		t.self[s.layer] += d
		t.count[s.layer]++
		if n := len(t.open); n > 0 {
			t.self[t.open[n-1].layer] -= d
		}
		if s.rec >= 0 {
			t.spans[s.rec].end = now
		}
	}
}

// write stores the kept spans as JSON lines: id, name, start and end in ns
// since the run's epoch, parent span id (-1 for an op root) and op id.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type rec struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int    `json:"parent"`
		Op     int    `json:"op"`
	}
	for i, s := range t.spans {
		if err := enc.Encode(rec{i, layerNames[s.layer], int64(s.start), int64(s.end), s.parent, s.op}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStrategy wraps a launch strategy so the sink it drives is traced.
// Name is forwarded unchanged: the campaign derives its RNG from it.
type tracedStrategy struct {
	inner attack.LaunchStrategy
	tr    *tracer
}

func (s *tracedStrategy) Name() string { return s.inner.Name() }

func (s *tracedStrategy) Launch(sink attack.CampaignSink, acct *faas.Account, cfg attack.Config, rng *randx.Source) error {
	return s.inner.Launch(&tracedSink{inner: sink, tr: s.tr, sched: acct.DataCenter().Scheduler()}, acct, cfg, rng)
}

// tracedSink records one "attack.wave" span per LaunchWave (faas launch plus
// fingerprinting) and one "simtime.hold" span per Hold (the kernel running
// the world forward), with the scheduler's queue depth at wave boundaries.
type tracedSink struct {
	inner attack.CampaignSink
	tr    *tracer
	sched *simtime.Scheduler
}

func (s *tracedSink) Deploy(name string) *faas.Service { return s.inner.Deploy(name) }

func (s *tracedSink) LaunchWave(svc *faas.Service, launchID int) (attack.Wave, error) {
	s.notePending()
	sp := s.tr.begin(layerWave)
	w, err := s.inner.LaunchWave(svc, launchID)
	s.tr.end(sp)
	s.notePending()
	return w, err
}

func (s *tracedSink) Keep(insts []*faas.Instance) { s.inner.Keep(insts) }

func (s *tracedSink) Hold(d time.Duration) {
	before := s.sched.Executed()
	sp := s.tr.begin(layerHold)
	s.inner.Hold(d)
	s.tr.end(sp)
	s.tr.holdEvents += s.sched.Executed() - before
}

func (s *tracedSink) Footprint() *attack.FootprintTracker { return s.inner.Footprint() }

func (s *tracedSink) notePending() {
	if p := s.sched.Pending(); p > s.tr.pendingPeak {
		s.tr.pendingPeak = p
	}
}

// tracedRunner times every CTest and PairTest as a "covert.ctest" span.
type tracedRunner struct {
	inner covert.Runner
	tr    *tracer
}

func (r *tracedRunner) CTest(instances []*faas.Instance, m int) ([]bool, error) {
	sp := r.tr.begin(layerCTest)
	defer r.tr.end(sp)
	return r.inner.CTest(instances, m)
}

func (r *tracedRunner) PairTest(a, b *faas.Instance) (bool, error) {
	sp := r.tr.begin(layerCTest)
	defer r.tr.end(sp)
	return r.inner.PairTest(a, b)
}

func (r *tracedRunner) Config() covert.Config    { return r.inner.Config() }
func (r *tracedRunner) Stats() covert.Stats      { return r.inner.Stats() }
func (r *tracedRunner) ResetStats()              { r.inner.ResetStats() }
func (r *tracedRunner) SetSink(sink covert.Sink) { r.inner.SetSink(sink) }

// spansPath is where a traced run writes its spans.
func spansPath(workload string, seed uint64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
