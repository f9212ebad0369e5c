// Command perfbench is the repository benchmark. Each workload builds a pool
// of worlds in set-up (platform, warm-up, victim launch, snapshot), then runs
// a closed loop of full attack campaigns against forks of them, one op after
// the other in this one process: Snapshot.Restore, victim lookup,
// NewCampaign → Launch → Verify, and a fold of the campaign ledger into an
// outcome digest that must equal the first op on the same world.
//
//	bash perfbench/run.sh --workload campaign-gen1 --seed 9 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced ops, and reports per-layer metrics, self
// time per layer and the tracing overhead. The last line of standard output
// is one JSON object: correct, attempted, failed and metrics. README.md
// documents every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"eaao/internal/faas"
	"eaao/internal/randx"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	// The calibration kernel is timed in this thread's CPU time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (campaign-gen1, verify-gen2, campaign-loaded)")
	seed := fs.Uint64("seed", 9, "run seed; the same seed builds the same worlds")
	seconds := fs.Float64("seconds", 10, "measured seconds, after set-up")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans/spans-<workload>-seed<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && ((*trace != 0 && *trace != 1) || *seconds <= 0) {
		err = fmt.Errorf("--trace must be 0 or 1 and --seconds positive")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *spans == "" {
		*spans = spansPath(w.name, *seed)
	}

	b := &bench{w: w, seed: *seed, out: stdout, cal: newCalibrator()}
	fmt.Fprintf(stdout, "workload %s (seed %d, %d worlds): %s\n", w.name, *seed, w.worlds, w.why)
	metrics, err := b.measure(time.Duration(*seconds*float64(time.Second)), *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Fprintf(stdout, "ops attempted %d, failed %d\n", b.attempted, b.failed)
	for _, f := range b.failures {
		fmt.Fprintln(stderr, "perfbench: op failed:", f)
	}
	line, err := json.Marshal(report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if b.failed > 0 {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	w      *workload
	seed   uint64
	out    io.Writer
	worlds []*world
	cal    *calibrator

	attempted, failed int
	failures          []string
}

// worldSeed derives the seed of the run's k-th world. World 0 is the run
// seed itself, so a run at seed 9 includes the CLI's default world.
func worldSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	return randx.MixStep(randx.MixInit(seed), uint64(k))
}

// check counts one op on wd and compares its outcome with the first op on
// the same world. It first times the calibration kernel once, so the kernel
// runs between every two ops of the run.
func (b *bench) check(wd *world, res opResult, err error) {
	b.cal.sample()
	b.attempted++
	switch {
	case err != nil:
		b.fail(fmt.Sprintf("world seed %d: %v", wd.seed, err))
	case wd.ref == nil:
		wd.ref = &res
	case res.digest != wd.ref.digest:
		b.fail(fmt.Sprintf("world seed %d: outcome diverged from the first op:\n  first: %s\n  this:  %s", wd.seed, wd.ref.digest, res.digest))
	}
}

func (b *bench) fail(msg string) {
	b.failed++
	if len(b.failures) < 3 {
		b.failures = append(b.failures, msg)
	}
}

// setupStats are per-world medians over the run's set-ups.
type setupStats struct {
	// world is one world's whole set-up in reference time, each scaled by
	// the host speed around it (calib.go); hostWorld is the same unscaled.
	world, hostWorld time.Duration
	// The stages are host wall times; factor, from all the calibration
	// samples taken between the set-ups, turns them into reference time.
	build, warmup, snapshot time.Duration
	factor                  float64
}

// setupAll builds the run's worlds, each followed by one discarded warm-up
// op that fixes the world's reference outcome. Each world is one set-up,
// timed in process CPU time; setup_s is their median.
func (b *bench) setupAll() (setupStats, error) {
	var per, build, warmup, snapshot []time.Duration
	from := len(b.cal.samples)
	start := time.Now()
	for k := 0; k < b.w.worlds; k++ {
		c0 := processCPU()
		wd, t, err := b.w.setup(worldSeed(b.seed, k))
		if err != nil {
			return setupStats{}, err
		}
		res, err := b.w.runOp(wd, nil)
		per = append(per, processCPU()-c0)
		b.check(wd, res, err)
		build = append(build, t.build)
		warmup = append(warmup, t.warmup)
		snapshot = append(snapshot, t.snapshot)
		b.worlds = append(b.worlds, wd)
	}
	total := time.Since(start)
	// The warm-up ops' garbage is collected here, in set-up, not in the
	// first timed ops.
	runtime.GC()
	if w0 := b.worlds[0]; w0.ref != nil {
		fmt.Fprintf(b.out, "world 0 (seed %d) outcome: %s\n", w0.seed, w0.ref.summary())
	}
	fmt.Fprintf(b.out, "set-up: %d worlds in %.3f s\n", len(b.worlds), total.Seconds())
	return setupStats{
		world:     medianDur(scale(per, b.cal.localFactors(from))),
		hostWorld: medianDur(per),
		build:     medianDur(build),
		warmup:    medianDur(warmup),
		snapshot:  medianDur(snapshot),
		factor:    b.cal.factorSince(from),
	}, nil
}

// outcome aggregates the worlds' reference outcomes. Coverage is victims
// covered over victims found, pooled over the worlds; a campaign that died
// covered none of its world's victims. The cost is the geometric mean over
// the worlds that covered a victim of campaign USD per covered victim: a
// few loaded worlds climb the whole noise ladder at several times the
// typical spend, and a pooled ratio would swing with how many of them a
// run's seed happens to draw.
func (b *bench) outcome() (coverage, usdPerVictim float64, err error) {
	var covered, victims, paid int
	var logSum float64
	for _, wd := range b.worlds {
		if wd.ref == nil {
			continue
		}
		st := wd.ref.stats
		covered += st.VictimsCovered
		victims += wd.ref.victims
		if st.VictimsCovered > 0 {
			logSum += math.Log(st.CostPerVictim())
			paid++
		}
	}
	if paid == 0 {
		return 0, 0, fmt.Errorf("no world covered a victim")
	}
	return float64(covered) / float64(victims), math.Exp(logSum / float64(paid)), nil
}

// meanRef averages f over the worlds' reference outcomes.
func (b *bench) meanRef(f func(*opResult) float64) float64 {
	var sum float64
	n := 0
	for _, wd := range b.worlds {
		if wd.ref != nil {
			sum += f(wd.ref)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (b *bench) measure(d time.Duration, traced bool, spansFile string) (map[string]metric, error) {
	setup, err := b.setupAll()
	if err != nil {
		return nil, err
	}
	if traced {
		return b.perLayer(setup, d, spansFile)
	}
	return b.endToEnd(setup, d)
}

// endToEnd is the untraced run: the metrics a user of the simulator sees.
// Ops cycle through the worlds, so every run mixes the same number of
// worlds whatever its seed. Each op is timed in process CPU time and
// scaled to reference time by the host speed around it.
func (b *bench) endToEnd(setup setupStats, d time.Duration) (map[string]metric, error) {
	var times []time.Duration
	from := len(b.cal.samples)
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		wd := b.worlds[i%len(b.worlds)]
		c0 := processCPU()
		res, err := b.w.runOp(wd, nil)
		times = append(times, processCPU()-c0)
		b.check(wd, res, err)
	}
	ref := scale(times, b.cal.localFactors(from))

	tail, pct, beyond := tailOf(ref)
	hostTail, _, _ := tailOf(times)
	fmt.Fprintf(b.out, "timed ops %d; op_ms_tail is p%.4g with %d samples beyond it\n", len(times), pct, beyond)
	fmt.Fprintf(b.out, "host speed %.4f of reference; host times: op_ms_p50 %.4f, op_ms_tail %.4f, ops_per_s %.4f, setup_s %.6f\n",
		b.cal.factorSince(from), ms(medianDur(times)), ms(hostTail), opsPerS(times), setup.hostWorld.Seconds())
	fmt.Fprintf(b.out, "host speed during set-up %.4f of reference\n", setup.factor)
	coverage, usd, err := b.outcome()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "all worlds: coverage %.4f, $%.6f per covered victim (geometric mean)\n", coverage, usd)
	return map[string]metric{
		"setup_s":        {setup.world.Seconds(), "s"},
		"ops_per_s":      {opsPerS(ref), "1/s"},
		"op_ms_p50":      {ms(medianDur(ref)), "ms"},
		"op_ms_tail":     {ms(tail), "ms"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
		"coverage":       {coverage, "fraction"},
		"usd_per_victim": {usd, "USD"},
	}, nil
}

// perLayer is the traced run. Untraced and traced ops alternate, each pair
// on the same world, so machine drift hits both alike and the tracing
// overhead is the difference of their medians. Ops are timed and scaled
// like the untraced run's; spans are wall time, scaled by the run's one
// host-speed factor, since a CPU clock read costs a system call and there
// are thousands of spans per op. The runtime.* metrics come from the
// untraced ops alone.
func (b *bench) perLayer(setup setupStats, d time.Duration, spansFile string) (map[string]metric, error) {
	tr := newTracer()
	var plain, traced []time.Duration
	var m0, m1 runtime.MemStats
	var alloc, mallocs, pauseNs uint64
	var gcs uint32
	from := len(b.cal.samples)
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		wd := b.worlds[(i/2)%len(b.worlds)]
		if i%2 == 0 {
			runtime.ReadMemStats(&m0)
			c0 := processCPU()
			res, err := b.w.runOp(wd, nil)
			plain = append(plain, processCPU()-c0)
			runtime.ReadMemStats(&m1)
			alloc += m1.TotalAlloc - m0.TotalAlloc
			mallocs += m1.Mallocs - m0.Mallocs
			pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
			gcs += m1.NumGC - m0.NumGC
			b.check(wd, res, err)
			continue
		}
		c0 := processCPU()
		res, err := b.w.runOp(wd, tr)
		traced = append(traced, processCPU()-c0)
		b.check(wd, res, err)
	}
	if len(traced) == 0 {
		return nil, fmt.Errorf("no traced op ran")
	}
	f := b.cal.factorSince(from)
	if err := tr.write(spansFile); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(b.out, "spans of the first %d traced ops written to %s\n", keptOps, spansFile)

	// Every time below is in reference ms (calib.go).
	n := float64(len(traced))
	perOp := func(d time.Duration) float64 { return ms(d) * f / n }
	total, self, spans := tr.total, tr.self, tr.count
	fmt.Fprintf(b.out, "%d untraced, %d traced ops; per traced op, in reference ms:\n  %-14s %10s %10s %8s\n", len(plain), len(traced), "layer", "total ms", "self ms", "spans")
	for l := 0; l < numLayers; l++ {
		fmt.Fprintf(b.out, "  %-14s %10.4f %10.4f %8.1f\n", layerNames[l], perOp(total[l]), perOp(self[l]), float64(spans[l])/n)
	}

	// Every op's outcome matched the first op on its world, and the counters
	// below are as deterministic as the ledger, so they are averaged over
	// the worlds' reference ops.
	mean := func(get func(*opResult) int) metric {
		return metric{b.meanRef(func(r *opResult) float64 { return float64(get(r)) }), "count"}
	}
	events := b.meanRef(func(r *opResult) float64 { return float64(r.events) })
	quietEvents, err := b.quietTwinEvents()
	if err != nil {
		return nil, err
	}
	ctestUS := 0.0
	if c := spans[layerCTest]; c > 0 {
		ctestUS = total[layerCTest].Seconds() * 1e6 * f / float64(c)
	}
	nsPerEvent := 0.0
	if tr.holdEvents > 0 {
		nsPerEvent = float64(total[layerHold].Nanoseconds()) * f / float64(tr.holdEvents)
	}
	ctests := b.meanRef(func(r *opResult) float64 { return float64(r.stats.CTests) })
	ctestsPerVictim := 0.0
	if victims := b.meanRef(func(r *opResult) float64 { return float64(r.stats.VictimInstances) }); victims > 0 {
		ctestsPerVictim = ctests / victims
	}
	// Op i of the loop is followed by calibration sample i: the untraced
	// ops are the even ones, the traced ops the odd ones.
	lf := b.cal.localFactors(from)
	for j := range plain {
		plain[j] = time.Duration(float64(plain[j]) * lf[2*j])
	}
	for j := range traced {
		traced[j] = time.Duration(float64(traced[j]) * lf[2*j+1])
	}
	plainP50, tracedP50 := ms(medianDur(plain)), ms(medianDur(traced))
	plainOps := float64(len(plain))
	share := func(d time.Duration) metric { return metric{d.Seconds() / total[layerOp].Seconds(), "ratio"} }

	return map[string]metric{
		"attack.launch_ms":      {perOp(total[layerLaunch]), "ms"},
		"attack.verify_ms":      {perOp(total[layerVerify]), "ms"},
		"attack.wave_ms":        {ms(total[layerWave]) * f / float64(max(spans[layerWave], 1)), "ms"},
		"attack.waves":          mean(func(r *opResult) int { return r.stats.Waves }),
		"attack.launch_retries": mean(func(r *opResult) int { return r.stats.LaunchRetries }),

		"faas.restore_ms":         {perOp(total[layerRestore]), "ms"},
		"faas.build_ms":           {ms(setup.build) * setup.factor, "ms"},
		"faas.snapshot_ms":        {ms(setup.snapshot) * setup.factor, "ms"},
		"faas.instances_per_op":   mean(func(r *opResult) int { return r.stats.InstancesLaunched }),
		"faas.materialized_hosts": mean(func(r *opResult) int { return r.materializedHosts }),
		"faas.live_instances":     mean(func(r *opResult) int { return r.liveInstances }),
		"faas.traffic_redraws":    mean(func(r *opResult) int { return r.redraws }),
		"faas.congestion_rejects": mean(func(r *opResult) int { return r.rejects }),

		"simtime.events_per_op": {events, "count"},
		"simtime.pending_peak":  {float64(tr.pendingPeak), "count"},
		"simtime.hold_ms":       {perOp(total[layerHold]), "ms"},
		"simtime.ns_per_event":  {nsPerEvent, "ns"},
		"simtime.warmup_s":      {setup.warmup.Seconds() * setup.factor, "s"},

		"fingerprint.samples":        mean(func(r *opResult) int { return r.stats.FingerprintSamples }),
		"fingerprint.apparent_hosts": mean(func(r *opResult) int { return r.stats.ApparentHosts }),

		"covert.ctests":           {ctests, "count"},
		"covert.channel_s":        {b.meanRef(func(r *opResult) float64 { return r.stats.CovertTime.Seconds() }), "s"},
		"covert.ctest_us":         {ctestUS, "us"},
		"covert.calibrations":     mean(func(r *opResult) int { return r.stats.Calibrations }),
		"covert.low_margin_tests": mean(func(r *opResult) int { return r.stats.LowMarginTests }),
		"covert.vote_raises":      mean(func(r *opResult) int { return r.stats.NoiseEscalations }),
		"covert.fallbacks":        mean(func(r *opResult) int { return r.stats.ChannelFallbacks }),

		"coloc.self_ms":           {perOp(self[layerVerify]), "ms"},
		"coloc.ctests_per_victim": {ctestsPerVictim, "ratio"},

		"runtime.alloc_mb_per_op":  {float64(alloc) / (1 << 20) / plainOps, "MB"},
		"runtime.mallocs_per_op":   {float64(mallocs) / plainOps, "count"},
		"runtime.gc_cycles_per_op": {float64(gcs) / plainOps, "count"},
		"runtime.gc_pause_ms":      {float64(pauseNs) / 1e6 * f / plainOps, "ms"},

		"self.op_ms":            {perOp(self[layerOp]), "ms"},
		"self.attack.launch_ms": {perOp(self[layerLaunch]), "ms"},

		"share.launch":         share(total[layerLaunch]),
		"share.verify":         share(total[layerVerify]),
		"share.restore":        share(total[layerRestore]),
		"share.traffic_events": {1 - quietEvents/events, "ratio"},

		"trace.op_ms_p50_untraced": {plainP50, "ms"},
		"trace.op_ms_p50_traced":   {tracedP50, "ms"},
		"trace.overhead_ms":        {tracedP50 - plainP50, "ms"},

		"host.speed":     {f, "ratio"},
		"host.kernel_us": {float64(medianDur(b.cal.samples[from:]).Nanoseconds()) / 1e3, "us"},
	}, nil
}

// quietTwinEvents is the mean kernel event count of one op on each world
// rebuilt without its background traffic: the events the campaign itself
// drives. The rest of a loaded op's events are traffic-driven. A quiet
// workload is its own twin.
func (b *bench) quietTwinEvents() (float64, error) {
	twin := *b.w
	twin.profile = func() faas.RegionProfile {
		p := b.w.profile()
		p.Traffic = faas.TrafficModel{}
		return p
	}
	var sum float64
	for _, wd := range b.worlds {
		tw, _, err := twin.setup(wd.seed)
		if err != nil {
			return 0, fmt.Errorf("quiet twin: %w", err)
		}
		res, err := twin.runOp(tw, nil)
		if err != nil {
			return 0, fmt.Errorf("quiet twin: %w", err)
		}
		sum += float64(res.events)
	}
	return sum / float64(len(b.worlds)), nil
}

// tailPct is the tail percentile. Of the standard percentiles (p90, p95,
// p99, p99.9) it is the highest that keeps at least ten samples beyond it
// in every run: a 30 s run completes 600 to 1700 ops, so p99 would keep as
// few as 6 on the slowest workload and flip between p95 and p99 from run
// to run on the others.
const tailPct = 95

// tailOf returns the nearest-rank tailPct percentile of times, the
// percentile and how many samples lie beyond it. A run too short to keep
// ten samples beyond tailPct falls back to the highest percentile that
// does: the (n−10)-th smallest time.
func tailOf(times []time.Duration) (time.Duration, float64, int) {
	n := len(times)
	s := sortedDur(times)
	rank := int(math.Ceil(tailPct / 100.0 * float64(n)))
	if n-rank >= 10 {
		return s[rank-1], tailPct, n - rank
	}
	if n <= 10 {
		return s[n-1], 100, 0
	}
	return s[n-11], 100 * float64(n-10) / float64(n), 10
}

func sortedDur(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func medianDur(d []time.Duration) time.Duration {
	s := sortedDur(d)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// opsPerS is the throughput of one client in a closed loop: ops over the
// time spent in them, which leaves out the calibration kernel between ops.
func opsPerS(times []time.Duration) float64 {
	var busy time.Duration
	for _, t := range times {
		busy += t
	}
	return float64(len(times)) / busy.Seconds()
}

// scale multiplies each time by its factor.
func scale(times []time.Duration, f []float64) []time.Duration {
	s := make([]time.Duration, len(times))
	for i, t := range times {
		s[i] = time.Duration(float64(t) * f[i])
	}
	return s
}

// peakRSSMB is the process's peak resident set, in MB of 2^20 bytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
