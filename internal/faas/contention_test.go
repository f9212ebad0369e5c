package faas

import (
	"fmt"
	"testing"
	"time"
	"unsafe"
)

// contentionRound is the per-round primitive ContentionRounds replaced, kept
// as the test oracle: one synchronized round that re-groups the
// participants, refreshes every host's misfire state and re-resolves its
// noise and drop odds, returning each participant's observed units.
func contentionRound(res Resource, parts []*Instance) []int {
	out := make([]int, len(parts))
	model := &channelModels[res]
	var mark uint64
	for _, inst := range parts {
		if inst.state == StateTerminated {
			continue
		}
		h := inst.host
		if mark == 0 {
			mark = h.dc.platform.nextMark()
		}
		if h.mark != mark {
			h.mark = mark
			h.roundCount = 0
			h.updateMisfire(res)
		}
		h.roundCount++
	}
	type draw struct{ bg, drop bool }
	draws := make(map[*Host]draw)
	for i, inst := range parts {
		if inst.state == StateTerminated {
			continue
		}
		h := inst.host
		d, ok := draws[h]
		if !ok {
			d.bg = h.noiseRNG.Bool(model.roundNoise(h))
			d.drop = model.LoadDrop > 0 && h.noiseRNG.Bool(model.roundDrop(h))
			draws[h] = d
		}
		units := int(h.roundCount)
		if d.bg {
			units++
		}
		if h.misfireBias[res] > 0 {
			units++
		} else if h.misfireBias[res] < 0 || d.drop {
			units = 0
		}
		out[i] = units
	}
	return out
}

// oracleRounds runs rounds oracle rounds and tallies them the way
// ContentionRounds reports them.
func oracleRounds(res Resource, parts []*Instance, rounds, m int) (votes, dead []int) {
	votes, dead = make([]int, len(parts)), make([]int, len(parts))
	for r := 0; r < rounds; r++ {
		for i, units := range contentionRound(res, parts) {
			if units >= m {
				votes[i]++
			}
			if units == 0 {
				dead[i]++
			}
		}
	}
	return votes, dead
}

// contentionWorld is a snapshotted world with an attacker service and the
// indices (into that service's instance list) of the participant groups
// under test.
type contentionWorld struct {
	name   string
	snap   *Snapshot
	kill   int
	groups map[string][]int
}

// buildContentionWorld launches 40 attacker instances into a world built
// from p (after advancing its clock by warm, so background traffic is in
// flight) and picks a co-located pair, three instances on distinct hosts,
// and one more instance that each fork terminates before testing.
func buildContentionWorld(t *testing.T, name string, seed uint64, p RegionProfile, warm time.Duration) contentionWorld {
	t.Helper()
	pl := MustPlatform(seed, p)
	pl.sched.Advance(warm)
	insts, err := pl.MustRegion(p.Name).Account("atk").DeployService("s", ServiceConfig{}).Launch(40)
	if err != nil {
		t.Fatal(err)
	}
	kill := len(insts) - 1
	coA, coB := -1, -1
	var distinct []int
	seen := make(map[*Host]bool)
	for i, inst := range insts[:kill] {
		for j := 0; j < i && coA < 0; j++ {
			if insts[j].host == inst.host {
				coA, coB = j, i
			}
		}
		if !seen[inst.host] && len(distinct) < 3 {
			seen[inst.host] = true
			distinct = append(distinct, i)
		}
	}
	if coA < 0 || len(distinct) < 3 {
		t.Fatalf("%s: no co-located pair or three distinct hosts", name)
	}
	snap, err := pl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return contentionWorld{
		name: name, snap: snap, kill: kill,
		groups: map[string][]int{
			"pair-one-host":   {coA, coB},
			"three-hosts":     distinct,
			"with-terminated": {coA, kill, distinct[1], coB},
		},
	}
}

// fork restores the world, terminates the designated instance and returns
// the platform and the group's participants.
func (w contentionWorld) fork(group []int) (*Platform, []*Instance) {
	p := w.snap.MustRestore()
	insts := p.MustRegion(p.Regions()[0]).Account("atk").DeployService("s", ServiceConfig{}).Instances()
	insts[w.kill].terminate(p.sched.Now())
	parts := make([]*Instance, len(group))
	for i, idx := range group {
		parts[i] = insts[idx]
	}
	return p, parts
}

// TestContentionRoundsMatchesPerRoundOracle pins the multi-round kernel to
// the per-round primitive it replaced: on two forks of one world, one
// ContentionRounds execution and R oracle rounds must agree on every
// participant's tallies, on the misfire episodes entered, and on the next
// draw of every touched host's noise stream and of the channel-fault stream
// — so a change in draw order or draw count fails here, not in a golden
// digest. Executions are spaced 70 ms apart so misfire windows (100 ms)
// expire between some of them and not others.
func TestContentionRoundsMatchesPerRoundOracle(t *testing.T) {
	loaded := testProfile()
	loaded.Traffic = DefaultTrafficModel(loaded.NumHosts, 0.7)
	faulty := testProfile()
	faulty.Faults.PerChannel[ResourceRNG] = ChannelFaultRates{FalsePositiveRate: 0.3}
	faulty.Faults.PerChannel[ResourceLLC] = ChannelFaultRates{FalseNegativeRate: 0.3}
	faulty.Faults.PerChannel[ResourceMemBus] = ChannelFaultRates{FalsePositiveRate: 0.2, FalseNegativeRate: 0.3}
	// Phantom misfires on a loaded LLC: a phantom unit outvotes the drops.
	loadedFaulty := loaded
	loadedFaulty.Faults.PerChannel[ResourceLLC] = ChannelFaultRates{FalsePositiveRate: 0.3, FalseNegativeRate: 0.3}
	worlds := []contentionWorld{
		buildContentionWorld(t, "quiet", 41, testProfile(), 0),
		buildContentionWorld(t, "load0.7", 44, loaded, 90*time.Minute),
		buildContentionWorld(t, "misfires", 43, faulty, 0),
		buildContentionWorld(t, "load0.7-misfires", 44, loadedFaulty, 90*time.Minute),
	}
	const rounds = 60
	for _, w := range worlds {
		serving, misfires := 0, 0
		for res := Resource(0); res < NumResources; res++ {
			for _, g := range []string{"pair-one-host", "three-hosts", "with-terminated"} {
				t.Run(fmt.Sprintf("%s/%s/%s", w.name, res, g), func(t *testing.T) {
					kp, kparts := w.fork(w.groups[g])
					op, oparts := w.fork(w.groups[g])
					for exec := 0; exec < 4; exec++ {
						m := 2 + exec%2
						votes, dead := make([]int, len(kparts)), make([]int, len(kparts))
						if err := ContentionRounds(res, kparts, rounds, m, votes, dead); err != nil {
							t.Fatal(err)
						}
						wantVotes, wantDead := oracleRounds(res, oparts, rounds, m)
						if fmt.Sprint(votes, dead) != fmt.Sprint(wantVotes, wantDead) {
							t.Fatalf("execution %d (m=%d): votes/dead %v %v, oracle %v %v", exec, m, votes, dead, wantVotes, wantDead)
						}
						kp.sched.Advance(70 * time.Millisecond)
						op.sched.Advance(70 * time.Millisecond)
					}
					kdc, odc := kparts[0].host.dc, oparts[0].host.dc
					if k, o := kdc.FaultCounters().ChannelMisfires, odc.FaultCounters().ChannelMisfires; k != o {
						t.Errorf("ChannelMisfires %d, oracle %d", k, o)
					}
					misfires += kdc.FaultCounters().ChannelMisfires
					if k, o := kdc.channelFaultRNG.Uint64(), odc.channelFaultRNG.Uint64(); k != o {
						t.Error("channel-fault stream diverged")
					}
					for i, inst := range kparts {
						if inst.state == StateTerminated {
							continue
						}
						if inst.host.servingResidents() > 0 {
							serving++
						}
						if k, o := inst.host.noiseRNG.Uint64(), oparts[i].host.noiseRNG.Uint64(); k != o {
							t.Errorf("participant %d: host noise stream diverged", i)
						}
					}
				})
			}
		}
		// Guard against a vacuous pass: the loaded world must reach the
		// serving-bystander drop term, the fault worlds must enter episodes.
		if w.name == "load0.7" && serving == 0 {
			t.Error("load0.7: no participant host had a serving bystander")
		}
		if (w.name == "misfires" || w.name == "load0.7-misfires") && misfires == 0 {
			t.Errorf("%s: no misfire episode was entered", w.name)
		}
	}
}

// TestHostSizeClass keeps Host within the 256-byte allocation size class.
// Every materialized host is copied into each snapshot and each fork, so
// crossing the line is a fleet-wide cost: a Host of 280 bytes (the
// contention tallies as two more int fields) added 2 MB to the benchmark's
// peak_rss_mb on campaign-gen1.
func TestHostSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Host{}); size > 256 {
		t.Errorf("Host is %d bytes, over its 256-byte size class", size)
	}
}
