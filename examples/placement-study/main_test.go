package main

// Example runs the program and pins its whole stdout, so `go test ./...`
// checks this example end to end through the public facade.
func Example() {
	main()
	// Output:
	// == Experiment 1: instance distribution (Obs. 1 & 2) ==
	// 400 instances spread over 37 apparent hosts (~10.8 per host)
	// after 2 idle minutes: 2 terminated (grace period)
	// after 12 idle minutes: 400/400 terminated (gradual reaping)
	//
	// == Experiment 2: behavior across launches (Obs. 3) ==
	// launch 1:  37 apparent hosts,  37 cumulative
	// launch 2:  37 apparent hosts,  39 cumulative
	// launch 3:  37 apparent hosts,  40 cumulative
	// launch 4:  37 apparent hosts,  40 cumulative
	// → the footprint barely grows: the account has stable base hosts
	//
	// == Experiment 3: different accounts (Obs. 4) ==
	// account studier        occupies 37 apparent hosts
	// account other-tenant   occupies 37 apparent hosts
	// → different accounts land on different base hosts
	//
	// == Experiment 4: short launch intervals (Obs. 5 & 6) ==
	// launch 1 (10-min interval):  37 apparent hosts,  37 cumulative
	// launch 2 (10-min interval):  94 apparent hosts,  95 cumulative
	// launch 3 (10-min interval): 139 apparent hosts, 147 cumulative
	// launch 4 (10-min interval): 205 apparent hosts, 206 cumulative
	// launch 5 (10-min interval): 205 apparent hosts, 207 cumulative
	// → repeated high demand spills instances onto helper hosts —
	//   the behavior the optimized co-location attack exploits
}
