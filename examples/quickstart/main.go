// Quickstart: deploy a service on the simulated FaaS platform, launch
// instances, fingerprint their hosts through the sandbox, and verify
// co-location with the covert channel — the full measurement loop of the
// paper in ~80 lines.
package main

import (
	"fmt"
	"log"
	"sort"

	"eaao"
)

func main() {
	// A deterministic cloud: same seed, same world.
	pl := eaao.NewPlatform(2024, eaao.USEast1Profile())
	dc := pl.MustRegion(eaao.USEast1)

	// Deploy a service and scale it out to 60 concurrently connected
	// instances (one WebSocket connection per instance, as in the paper).
	svc := dc.Account("quickstart").DeployService("probe", eaao.ServiceConfig{})
	insts, err := svc.Launch(60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("launched %d instances of %q\n\n", len(insts), svc.Name())

	// Fingerprint every instance's physical host: read the TSC and the wall
	// clock inside the sandbox, derive the host boot time (Eq. 4.1), round
	// to 1 s.
	items := make([]eaao.VerifyItem, len(insts))
	unique := make(map[eaao.Gen1Fingerprint]int)
	for i, inst := range insts {
		g := inst.MustGuest()
		sample, err := eaao.CollectGen1(g)
		if err != nil {
			log.Fatal(err)
		}
		fp := eaao.Gen1FromSample(sample, eaao.DefaultPrecision)
		unique[fp]++
		items[i] = eaao.VerifyItem{Inst: inst, Fingerprint: fp.Key()}
	}
	fmt.Printf("%d apparent hosts among %d instances:\n", len(unique), len(insts))
	keys := make([]string, 0, len(unique))
	byKey := make(map[string]int, len(unique))
	for fp, n := range unique {
		keys = append(keys, fp.String())
		byKey[fp.String()] = n
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(unique)-5)
			break
		}
		fmt.Printf("  %-64s ×%d\n", k, byKey[k])
	}

	// Verify the fingerprints with the scalable covert-channel methodology:
	// O(hosts) tests instead of O(instances²).
	tester := eaao.NewCovertTester(pl.Scheduler())
	res, err := eaao.VerifyColocation(tester, items, eaao.DefaultVerifyOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nverified %d co-location clusters using %d covert-channel tests (%v serialized)\n",
		len(res.Clusters), res.Tests, res.SerializedTime)
	fmt.Printf("pairwise testing would have needed %d tests\n", len(insts)*(len(insts)-1)/2)
	if res.FalsePositiveSplits == 0 && res.FalseNegativeMerges == 0 {
		fmt.Println("fingerprints were perfect: no false positives, no false negatives")
	} else {
		fmt.Printf("verification fixed %d false-positive groups and %d false-negative merges\n",
			res.FalsePositiveSplits, res.FalseNegativeMerges)
	}
}
