package main

// Example runs the program and pins its whole stdout, so `go test ./...`
// checks this example end to end through the public facade.
func Example() {
	main()
	// Output:
	// victim deployed 100 instances of "login"
	//
	// Strategy 1 (naive): 1600 instances on 40 apparent hosts → coverage 0.0% (0/100 victims, 0 shared hosts)
	// Strategy 2 (optimized): 1600 instances on 275 apparent hosts → coverage 100.0% (100/100 victims, 10 shared hosts)
	// campaign cost: 8.08 USD (24 launches, 7530 instances created)
	//
	// co-located: 10 spy instances share hosts with the victim — starting extraction
	// victim secret bits recovered: 1011001011100011 (accuracy 100%)
}
