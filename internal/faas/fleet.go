package faas

import "fmt"

// Fleet is a multi-region world built for sharded campaigns: R independent
// region worlds, one Platform (virtual clock + event kernel + RNG streams)
// per region, all derived from one root seed. Because every per-region
// stream derives from (seed, region name) without consuming parent
// randomness, each shard is byte-identical to the same region inside a
// combined multi-region Platform — and a one-region fleet is byte-identical
// to today's single-region platform. What the split buys is independence:
// each shard owns its clock, so R campaigns can advance time concurrently
// (one goroutine per shard, the simulator stays single-threaded per world)
// and merge deterministically, exactly like the experiments' trial engine.
type Fleet struct {
	seed   uint64
	shards []*DataCenter
	byName map[Region]*DataCenter
}

// NewFleet builds one independent region world per profile, all seeded from
// the same root seed. The same seed and profiles always produce an identical
// fleet; region order follows the profile order.
func NewFleet(seed uint64, profiles ...RegionProfile) (*Fleet, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("faas: fleet needs at least one region profile")
	}
	f := &Fleet{seed: seed, byName: make(map[Region]*DataCenter, len(profiles))}
	for _, prof := range profiles {
		if _, dup := f.byName[prof.Name]; dup {
			return nil, fmt.Errorf("faas: duplicate region %s in fleet", prof.Name)
		}
		p, err := NewPlatform(seed, prof)
		if err != nil {
			return nil, err
		}
		dc := p.MustRegion(prof.Name)
		f.shards = append(f.shards, dc)
		f.byName[prof.Name] = dc
	}
	return f, nil
}

// FleetOf adapts pre-built region worlds into a fleet, for callers that
// already hold a DataCenter (the experiments' trial jobs build their own).
// Regions must be distinct, and with two or more shards each must live on
// its own Platform: shards sharing a scheduler cannot advance independently,
// which would break both shard isolation and deterministic merging. A
// single-shard fleet may wrap a region of any platform.
func FleetOf(dcs ...*DataCenter) (*Fleet, error) {
	if len(dcs) == 0 {
		return nil, fmt.Errorf("faas: fleet needs at least one region")
	}
	f := &Fleet{
		seed:   dcs[0].Platform().Seed(),
		byName: make(map[Region]*DataCenter, len(dcs)),
	}
	for i, dc := range dcs {
		if _, dup := f.byName[dc.Region()]; dup {
			return nil, fmt.Errorf("faas: duplicate region %s in fleet", dc.Region())
		}
		for _, prev := range dcs[:i] {
			if prev.Platform() == dc.Platform() {
				return nil, fmt.Errorf("faas: fleet shards %s and %s share a platform (each shard needs its own clock)",
					prev.Region(), dc.Region())
			}
		}
		f.shards = append(f.shards, dc)
		f.byName[dc.Region()] = dc
	}
	return f, nil
}

// Seed returns the root seed the fleet's shards were built from.
func (f *Fleet) Seed() uint64 { return f.seed }

// Size returns the number of region shards.
func (f *Fleet) Size() int { return len(f.shards) }

// Regions lists the shard regions in construction order.
func (f *Fleet) Regions() []Region {
	out := make([]Region, len(f.shards))
	for i, dc := range f.shards {
		out[i] = dc.Region()
	}
	return out
}

// Shards returns the region worlds in construction order.
func (f *Fleet) Shards() []*DataCenter { return append([]*DataCenter(nil), f.shards...) }

// Region returns the shard with the given name.
func (f *Fleet) Region(r Region) (*DataCenter, error) {
	dc, ok := f.byName[r]
	if !ok {
		return nil, fmt.Errorf("faas: region %s not in fleet", r)
	}
	return dc, nil
}

// MustRegion is Region, panicking on an unknown name.
func (f *Fleet) MustRegion(r Region) *DataCenter {
	dc, err := f.Region(r)
	if err != nil {
		panic(err)
	}
	return dc
}
