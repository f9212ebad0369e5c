package experiments

import (
	"fmt"
	"sync"

	"eaao/internal/faas"
)

// The world forge is the experiments' copy-on-write world supply: every
// fixed-seed trial site asks it for a platform instead of calling
// faas.MustPlatform directly. The first request for a (seed, profiles)
// configuration builds the world once and cuts a faas.Snapshot of the
// pristine state; every later request — the other trials of a sweep, the
// other shards of a fleet, the next benchmark iteration — forks the snapshot
// instead of replaying construction. A fork is byte-identical to a fresh
// build (pinned by TestSnapshotRestoreByteIdentical and the golden digest
// suite), so the forge is invisible to every experiment result; it only
// moves wall time.
//
// Per-trial sites that derive their world from the trial sub-seed (fig4,
// fig5, fig7, fig11, fig12, the drift and reattack studies) keep building
// directly: each of their seeds is used exactly once per run, so a snapshot
// would be pure overhead. The scale experiment also builds directly — it is
// the kernel benchmark, and its world construction is part of what it
// measures.
//
// The map is guarded by a mutex because runTrials fans trials out across
// goroutines. That sync lives here, in the experiments layer that already
// coordinates between worlds; each simulated world itself stays
// single-threaded.
type worldForge struct {
	mu     sync.Mutex
	worlds map[string]*forgedWorld
}

type forgedWorld struct {
	once  sync.Once
	mu    sync.Mutex
	first *faas.Platform // the build the snapshot was cut from; handed to the first caller
	snap  *faas.Snapshot
	seed  uint64
	profs []faas.RegionProfile
}

var forge = worldForge{worlds: make(map[string]*forgedWorld)}

// worldKey fingerprints a world configuration. RegionProfile is a plain
// value struct (no maps, no funcs; Policy is a stateless value behind an
// interface), so %#v renders every placement knob, fault rate, and the
// concrete policy type deterministically.
func worldKey(seed uint64, profiles []faas.RegionProfile) string {
	return fmt.Sprintf("%d|%#v", seed, profiles)
}

func (f *worldForge) entry(seed uint64, profiles []faas.RegionProfile) *forgedWorld {
	key := worldKey(seed, profiles)
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.worlds[key]
	if !ok {
		w = &forgedWorld{seed: seed, profs: profiles}
		f.worlds[key] = w
	}
	return w
}

func (w *forgedWorld) fork() *faas.Platform {
	w.once.Do(func() {
		p := faas.MustPlatform(w.seed, w.profs...)
		w.first = p
		// A fresh build holds no closure events, callbacks or tracer, so it
		// always snapshots; an error here is a platform bug.
		snap, err := p.Snapshot()
		if err != nil {
			panic(err)
		}
		w.snap = snap
	})
	w.mu.Lock()
	p := w.first
	w.first = nil
	w.mu.Unlock()
	if p != nil {
		return p
	}
	return w.snap.MustRestore()
}

// forkPlatform returns an independent world for (seed, profiles): built from
// scratch on the configuration's first use, forked from its pristine
// snapshot afterwards. Interchangeable with faas.MustPlatform at every
// fixed-seed trial site.
func forkPlatform(seed uint64, profiles ...faas.RegionProfile) *faas.Platform {
	return forge.entry(seed, profiles).fork()
}

// forkFleet is forkPlatform for sharded campaigns: one forked single-region
// platform per profile, assembled with faas.FleetOf. Byte-identical to
// faas.NewFleet(seed, profiles...) — NewFleet also builds one platform per
// region from the root seed — but cells of a sweep share each region's
// construction instead of replaying it.
func forkFleet(seed uint64, profiles ...faas.RegionProfile) (*faas.Fleet, error) {
	dcs := make([]*faas.DataCenter, len(profiles))
	for i, prof := range profiles {
		dcs[i] = forkPlatform(seed, prof).MustRegion(prof.Name)
	}
	return faas.FleetOf(dcs...)
}
