package main

// Example runs the program and pins its whole stdout, so `go test ./...`
// checks this example end to end through the public facade.
func Example() {
	main()
	// Output:
	// 47 fingerprint histories of ≥24h (instance churn truncated the rest)
	//
	// instance                                  drift (s/day)      |r| expires in
	// tracker/long-runner-000009                      -0.6425  1.00000 2h0m0s
	// tracker/long-runner-000027                      -0.6425  1.00000 4h0m0s
	// tracker/long-runner-000015                      -0.6425  1.00000 7h0m0s
	// tracker/long-runner-000021                      -0.6425  1.00000 12h0m0s
	// tracker/long-runner-000049                       0.6309  1.00000 13h0m0s
	// tracker/long-runner-000006                      -0.6425  1.00000 14h0m0s
	// tracker/long-runner-000069                      -0.6425  1.00000 16h0m0s
	// tracker/long-runner-000031                       0.6309  1.00000 29h0m0s
	// tracker/long-runner-000033                       0.1408  1.00000 30h0m0s
	// tracker/long-runner-000073                      -0.1572  1.00000 32h0m0s
	// tracker/long-runner-000058                      -0.1572  1.00000 32h0m0s
	// tracker/long-runner-000067                      -0.1572  1.00000 32h0m0s
	// tracker/long-runner-000018                      -0.6425  1.00000 35h0m0s
	// tracker/long-runner-000065                      -0.1065  1.00000 36h0m0s
	// tracker/long-runner-000035                      -0.1572  1.00000 53h0m0s
	// tracker/long-runner-000045                      -0.1572  1.00000 65h0m0s
	// tracker/long-runner-000071                       0.1007  1.00000 78h0m0s
	// tracker/long-runner-000041                       0.1408  1.00000 143h0m0s
	// tracker/long-runner-000050                       0.1408  1.00000 143h0m0s
	// tracker/long-runner-000013                       0.0610  1.00000 155h0m0s
	// tracker/long-runner-000022                       0.0610  1.00000 155h0m0s
	// tracker/long-runner-000063                       0.0610  1.00000 155h0m0s
	// tracker/long-runner-000070                       0.0387  1.00000 175h0m0s
	// tracker/long-runner-000059                       0.0387  1.00000 187h0m0s
	// tracker/long-runner-000072                       0.0880  1.00000 188h0m0s
	// tracker/long-runner-000007                       0.0610  1.00000 205h0m0s
	// tracker/long-runner-000056                       0.0387  1.00000 205h0m0s
	// tracker/long-runner-000010                       0.0610  1.00000 206h0m0s
	// tracker/long-runner-000028                       0.0610  1.00000 217h0m0s
	// tracker/long-runner-000019                       0.0610  1.00000 220h0m0s
	// tracker/long-runner-000025                       0.0610  1.00000 224h0m0s
	// tracker/long-runner-000048                       0.0550  1.00000 353h0m0s
	// tracker/long-runner-000037                       0.0550  1.00000 353h0m0s
	// tracker/long-runner-000057                       0.0550  1.00000 354h0m0s
	// tracker/long-runner-000061                       0.0550  1.00000 361h0m0s
	// tracker/long-runner-000062                      -0.0477  1.00000 423h0m0s
	// tracker/long-runner-000068                      -0.0477  1.00000 424h0m0s
	// tracker/long-runner-000046                      -0.0477  1.00000 461h0m0s
	// tracker/long-runner-000054                      -0.0294  1.00000 714h0m0s
	// tracker/long-runner-000053                      -0.0294  1.00000 714h0m0s
	// tracker/long-runner-000042                      -0.0052  1.00000 1363h0m0s
	// tracker/long-runner-000060                       0.0067  1.00000 1412h0m0s
	// tracker/long-runner-000026                       0.0067  1.00000 1423h0m0s
	// tracker/long-runner-000020                       0.0067  1.00000 1441h0m0s
	// tracker/long-runner-000014                       0.0067  1.00000 1454h0m0s
	// tracker/long-runner-000017                       0.0067  1.00000 1463h0m0s
	// tracker/long-runner-000008                       0.0067  1.00000 1477h0m0s
	//
	// every |r| ≈ 1: the drift is linear, exactly as Eq. 4.2 predicts —
	// an attacker refreshes fingerprints every day or two and tracks hosts indefinitely
}
