package main

// Example runs the program and pins its whole stdout, so `go test ./...`
// checks this example end to end through the public facade.
func Example() {
	main()
	// Output:
	// baseline  120 instances →  11 apparent hosts; timer read costs 8ns
	// hardened  120 instances →  37 apparent hosts; timer read costs 900ns
	//
	// hardened: the derived boot times no longer identify machines (the
	// 'apparent hosts' are arbitrary groupings of sandbox start times), but
	// every rdtsc now costs a kernel round trip — ~112x slower, which §6
	// notes is prohibitive for databases, live media, and logging-heavy apps.
	// Gen 2's hardware TSC scaling gets the same protection for free.
}
