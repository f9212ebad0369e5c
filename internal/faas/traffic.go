package faas

import (
	"fmt"
	"math"
	"time"

	"eaao/internal/randx"
	"eaao/internal/simtime"
)

// Background-tenant traffic: the "living cloud" the paper measured against.
// A TrafficModel on the RegionProfile keeps a population of bystander
// accounts churning while experiments run — heavy-tailed (Zipf) service
// sizes, bursty Poisson demand re-draws, and a diurnal envelope — so that
// load-sensitive covert channels (the LLC) and placement contention see
// realistic occupancy instead of an empty fleet.
//
// The whole layer is data plus intrusive kernel events: tenants are plain
// structs whose demand re-draw timer is a simtime.Event dispatched through
// trafficTenant's Handler implementation, and every random decision is a
// stateless randx.Mix draw addressed by (tenant rank, draw counter). No
// closures, no maps, no wall-clock state — a loaded world snapshots and
// forks exactly like a quiet one, and a zero TrafficModel leaves the
// simulation byte-identical to a build without this file.

// TrafficModel parameterizes one region's background-tenant workload. The
// zero value disables the layer entirely. It is plain data (no functions,
// maps, or pointers) by design: experiment world keys print it with %#v and
// snapshots copy it by value.
type TrafficModel struct {
	// Tenants is the number of bystander accounts (one autoscaled service
	// each). 0 disables background traffic.
	Tenants int

	// TargetUtilization is the aggregate demand target as a fraction of the
	// region's base capacity (NumHosts × BasePerHostCap). Individual tenants
	// burst above and below it; the fleet hovers around it. 0 disables
	// background traffic.
	TargetUtilization float64

	// ZipfExponent shapes the heavy-tailed split of the aggregate demand
	// across tenants (tenant i's share ∝ 1/(i+1)^s): a few whales, many
	// small services. 0 means the default 1.1.
	ZipfExponent float64

	// BurstsPerHour is the Poisson rate at which each tenant re-draws its
	// demand (bursty arrivals: re-draw instants are exponentially spaced).
	// 0 means the default 4.
	BurstsPerHour float64

	// BurstSigma is the lognormal shape of the per-redraw demand multiplier
	// (unit mean). 0 means the default 0.45.
	BurstSigma float64

	// DiurnalAmplitude is the relative swing of the day/night demand
	// envelope, in [0, 1). 0 keeps demand flat.
	DiurnalAmplitude float64

	// DiurnalPeriod is the envelope's period. 0 means the default 24 h.
	DiurnalPeriod time.Duration

	// CongestionKnee is the utilization above which the orchestrator starts
	// shedding launches; CongestionRejectRate is the rejection probability
	// reached at (or beyond) full utilization, ramping linearly from the
	// knee. A zero rate disables congestion rejections (the load then only
	// affects channel noise and placement, never launch admission). Knee 0
	// means the default 0.85.
	CongestionKnee       float64
	CongestionRejectRate float64
}

// DefaultTrafficModel returns a fully-shaped model at the given population
// and utilization target: Zipf 1.1, 4 bursty re-draws per hour at lognormal
// σ 0.45, a 25% diurnal swing, and congestion rejections ramping to 35%
// past 85% utilization.
func DefaultTrafficModel(tenants int, utilization float64) TrafficModel {
	return TrafficModel{
		Tenants:              tenants,
		TargetUtilization:    utilization,
		ZipfExponent:         1.1,
		BurstsPerHour:        4,
		BurstSigma:           0.45,
		DiurnalAmplitude:     0.25,
		DiurnalPeriod:        24 * time.Hour,
		CongestionKnee:       0.85,
		CongestionRejectRate: 0.35,
	}
}

// Enabled reports whether the model generates any traffic.
func (m TrafficModel) Enabled() bool { return m.Tenants > 0 && m.TargetUtilization > 0 }

// Validate checks the model's parameters.
func (m TrafficModel) Validate() error {
	switch {
	case m.Tenants < 0:
		return fmt.Errorf("faas: TrafficModel.Tenants negative")
	case m.TargetUtilization < 0 || m.TargetUtilization > 1.5:
		return fmt.Errorf("faas: TrafficModel.TargetUtilization %v out of [0,1.5]", m.TargetUtilization)
	case m.ZipfExponent < 0 || m.ZipfExponent > 4:
		return fmt.Errorf("faas: TrafficModel.ZipfExponent %v out of [0,4]", m.ZipfExponent)
	case m.BurstsPerHour < 0:
		return fmt.Errorf("faas: TrafficModel.BurstsPerHour negative")
	case m.BurstSigma < 0 || m.BurstSigma > 2:
		return fmt.Errorf("faas: TrafficModel.BurstSigma %v out of [0,2]", m.BurstSigma)
	case m.DiurnalAmplitude < 0 || m.DiurnalAmplitude >= 1:
		return fmt.Errorf("faas: TrafficModel.DiurnalAmplitude %v out of [0,1)", m.DiurnalAmplitude)
	case m.DiurnalPeriod < 0:
		return fmt.Errorf("faas: TrafficModel.DiurnalPeriod negative")
	case m.CongestionKnee < 0 || m.CongestionKnee >= 1:
		return fmt.Errorf("faas: TrafficModel.CongestionKnee %v out of [0,1)", m.CongestionKnee)
	case m.CongestionRejectRate < 0 || m.CongestionRejectRate > 1:
		return fmt.Errorf("faas: TrafficModel.CongestionRejectRate %v out of [0,1]", m.CongestionRejectRate)
	}
	return nil
}

// resolved fills the shape defaults a sparse model left zero, so callers can
// set just Tenants and TargetUtilization. The resolved copy lives only in
// the engine; the profile keeps what the caller wrote (world keys stay
// faithful to the input).
func (m TrafficModel) resolved() TrafficModel {
	if m.ZipfExponent == 0 {
		m.ZipfExponent = 1.1
	}
	if m.BurstsPerHour == 0 {
		m.BurstsPerHour = 4
	}
	if m.BurstSigma == 0 {
		m.BurstSigma = 0.45
	}
	if m.DiurnalPeriod == 0 {
		m.DiurnalPeriod = 24 * time.Hour
	}
	if m.CongestionKnee == 0 {
		m.CongestionKnee = 0.85
	}
	return m
}

// trafficState is the per-region traffic engine: the resolved model, the
// tenant population (a fixed slice — pending events point into it), and the
// congestion-rejection stream. All of it deep-copies in snapshots.
type trafficState struct {
	dc    *DataCenter
	model TrafficModel // resolved

	// mix1 is the precomputed first mixer round of the traffic layer's
	// stateless draw hash; tenant draws address it by (rank, draw counter),
	// exactly like the lifecycle kernel's per-instance streams.
	mix1    uint64
	tenants []trafficTenant

	// rejectRNG draws congestion rejections; a dedicated stream so launch
	// admission under load never perturbs fault or placement draws.
	rejectRNG *randx.Source

	// capacity is the region's base capacity (NumHosts × BasePerHostCap),
	// the denominator of the utilization observable.
	capacity int

	// redraws counts demand re-draw events fired; rejects counts launches
	// shed by the congestion plane.
	redraws int
	rejects int
}

// trafficTenant is one bystander account's demand process. Its re-draw timer
// is the intrusive ev event; HandleEvent re-draws demand and re-arms.
type trafficTenant struct {
	state *trafficState
	// mixBase is randx.MixStep(state.mix1, rank): the tenant's stateless
	// draw stream, advanced by the draws counter.
	mixBase uint64
	svc     *Service
	// base is the tenant's Zipf share of the aggregate demand target; phase
	// jitters its diurnal envelope so tenants don't swing in lockstep.
	base  float64
	phase float64
	draws uint32
	ev    simtime.Event
}

// initTraffic builds the bystander population and arms the first demand
// re-draws, staggered across one mean burst interval. It runs once at data
// center construction (after the lifecycle kernel), only when the profile's
// model is enabled — a quiet world never reaches this code.
//
// Account and stream derivation consume no parent randomness, so creating
// the bystander accounts shifts no other stream: a loaded world's attacker
// draws diverge from the quiet world's only through genuine load effects
// (host occupancy, placement contention, congestion rejections).
func (dc *DataCenter) initTraffic() {
	m := dc.profile.Traffic.resolved()
	ts := &trafficState{
		dc:        dc,
		model:     m,
		mix1:      randx.MixInit(randx.DeriveSeed(dc.seed, "traffic")),
		rejectRNG: randx.New(randx.DeriveSeed(dc.seed, "traffic", "congestion")),
		capacity:  dc.profile.NumHosts * dc.profile.BasePerHostCap,
		tenants:   make([]trafficTenant, m.Tenants),
	}
	dc.traffic = ts

	weights := make([]float64, m.Tenants)
	var sum float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -m.ZipfExponent)
		sum += weights[i]
	}
	total := m.TargetUtilization * float64(ts.capacity)
	interval := time.Duration(float64(time.Hour) / m.BurstsPerHour)
	for i := range ts.tenants {
		t := &ts.tenants[i]
		t.state = ts
		t.mixBase = randx.MixStep(ts.mix1, uint64(i))
		acct := dc.Account(fmt.Sprintf("bg-%05d", i))
		// Bystanders are established tenants; the new-account quota models
		// the attacker's multi-account obstacle, not the installed base.
		acct.Mature()
		t.svc = acct.DeployService("load", ServiceConfig{MaxConcurrency: 1})
		t.base = total * weights[i] / sum
		t.phase = (t.u() - 0.5) * 0.15
		dc.platform.sched.ArmHandlerAfter(&t.ev, time.Duration(t.u()*float64(interval)), t)
	}
}

// u returns the tenant's next stateless uniform draw in [0, 1).
func (t *trafficTenant) u() float64 {
	v := randx.Unit(randx.MixStep(t.mixBase, uint64(t.draws)))
	t.draws++
	return v
}

// normal returns a standard normal draw (Box–Muller over two stateless
// uniforms; always exactly two draws, so the stream stays addressable).
func (t *trafficTenant) normal() float64 {
	u1, u2 := t.u(), t.u()
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// HandleEvent is the tenant's demand re-draw: set a fresh demand level on
// the autoscaled service and re-arm at the next Poisson arrival.
func (t *trafficTenant) HandleEvent(_ *simtime.Event, now simtime.Time) {
	ts := t.state
	// SetDemand only errors on negative demand; demandAt clamps at 0.
	_ = t.svc.SetDemand(t.demandAt(now))
	ts.redraws++
	mean := float64(time.Hour) / ts.model.BurstsPerHour
	delay := time.Duration(-math.Log(1-t.u()) * mean)
	if delay < time.Second {
		delay = time.Second
	}
	ts.dc.platform.sched.ArmHandlerAfter(&t.ev, delay, t)
}

// demandAt computes the tenant's demand level at an instant: the Zipf base
// share, scaled by the diurnal envelope and a unit-mean lognormal burst
// multiplier, clamped to the per-service quota. The draw count per call is
// fixed by the model's shape (not by outcomes), keeping the stream
// addressable across forks.
func (t *trafficTenant) demandAt(now simtime.Time) int {
	m := &t.state.model
	f := 1.0
	if m.DiurnalAmplitude > 0 {
		cycle := now.Seconds()/m.DiurnalPeriod.Seconds() + t.phase
		f += m.DiurnalAmplitude * math.Sin(2*math.Pi*cycle)
	}
	if s := m.BurstSigma; s > 0 {
		f *= math.Exp(s*t.normal() - s*s/2)
	}
	d := int(math.Round(t.base * f))
	if d < 0 {
		d = 0
	}
	if max := t.state.dc.profile.MaxInstancesPerService; d > max {
		d = max
	}
	return d
}

// launchCongested is the congestion plane's admission check, applied to
// every Service.Launch (bystanders included — background demand is
// self-regulating under its own pressure). Past the knee, launches are shed
// with probability ramping linearly to CongestionRejectRate at full
// utilization; shed launches fail with ErrLaunchFault so the attack side's
// retry machinery engages on them like on any transient rejection.
func (ts *trafficState) launchCongested(s *Service) error {
	m := &ts.model
	if m.CongestionRejectRate <= 0 {
		return nil
	}
	util := float64(ts.dc.liveInstances) / float64(ts.capacity)
	if util <= m.CongestionKnee {
		return nil
	}
	p := m.CongestionRejectRate * (util - m.CongestionKnee) / (1 - m.CongestionKnee)
	if p > m.CongestionRejectRate {
		p = m.CongestionRejectRate
	}
	if !ts.rejectRNG.Bool(p) {
		return nil
	}
	ts.rejects++
	return fmt.Errorf("faas: %s/%s launch rejected under load: %w",
		s.account.id, s.name, ErrLaunchFault)
}

// LiveInstances returns the region's current live (active + idle resident)
// instance count, across all accounts.
func (dc *DataCenter) LiveInstances() int { return dc.liveInstances }

// Capacity returns the region's base capacity: NumHosts × BasePerHostCap,
// the denominator of Utilization.
func (dc *DataCenter) Capacity() int {
	return dc.profile.NumHosts * dc.profile.BasePerHostCap
}

// Utilization returns live instances over base capacity — the platform-side
// load observable experiments sweep against.
func (dc *DataCenter) Utilization() float64 {
	c := dc.Capacity()
	if c <= 0 {
		return 0
	}
	return float64(dc.liveInstances) / float64(c)
}

// TrafficStats is a snapshot of the background-traffic engine's counters.
type TrafficStats struct {
	// Tenants is the bystander population size (0 when traffic is off).
	Tenants int
	// DemandRedraws counts tenant demand re-draw events fired so far.
	DemandRedraws int
	// CongestionRejects counts launches shed by the congestion plane.
	CongestionRejects int
	// LiveInstances and Utilization mirror the region observables at the
	// moment of the snapshot.
	LiveInstances int
	Utilization   float64
}

// TrafficStats returns the region's traffic counters (zero-valued apart from
// the live observables when no TrafficModel is configured).
func (dc *DataCenter) TrafficStats() TrafficStats {
	st := TrafficStats{
		LiveInstances: dc.liveInstances,
		Utilization:   dc.Utilization(),
	}
	if ts := dc.traffic; ts != nil {
		st.Tenants = len(ts.tenants)
		st.DemandRedraws = ts.redraws
		st.CongestionRejects = ts.rejects
	}
	return st
}
