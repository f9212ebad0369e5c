package main

// Example runs the program and pins its whole stdout, so `go test ./...`
// checks this example end to end through the public facade.
func Example() {
	main()
	// Output:
	// launched 60 instances of "probe"
	//
	// 6 apparent hosts among 60 instances:
	//   gen1{Intel(R) Xeon(R) CPU @ 2.00GHz, boot=2023-05-01T20:51:21Z, p=1s} ×10
	//   gen1{Intel(R) Xeon(R) CPU @ 2.00GHz, boot=2023-05-03T10:45:06Z, p=1s} ×10
	//   gen1{Intel(R) Xeon(R) CPU @ 2.20GHz, boot=2023-04-21T13:14:03Z, p=1s} ×10
	//   gen1{Intel(R) Xeon(R) CPU @ 2.80GHz, boot=2023-04-22T20:22:41Z, p=1s} ×10
	//   gen1{Intel(R) Xeon(R) CPU @ 2.80GHz, boot=2023-05-27T02:16:58Z, p=1s} ×10
	//   ... and 1 more
	//
	// verified 6 co-location clusters using 31 covert-channel tests (3.1s serialized)
	// pairwise testing would have needed 1770 tests
	// fingerprints were perfect: no false positives, no false negatives
}
