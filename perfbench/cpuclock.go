package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// Op and set-up times are process CPU time, not wall time. The simulator is
// single-threaded and never blocks, so on an idle host the two agree (the
// median op's CPU time was within 0.5% of its wall time), and CPU time still
// counts the garbage collector's work on the other core. What wall time adds
// on a shared host is the time the op waited for a core: with two
// CPU-burning processes running 2 s of every 6 beside the benchmark, the
// wall-time p95 of campaign-loaded rose from about 52 to 78 ms while the
// CPU-time p95 stayed at 48–57 ms. The tail sits in the few ops such waits
// land in, so on wall time it measured the host's other tenants.

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// processCPU is the CPU time all of the process's threads have used.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time the calling thread has used; the caller must be
// locked to its thread (runtime.LockOSThread).
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}
