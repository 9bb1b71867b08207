package main

import (
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// Every process of a run — this one, armus-serve, armus-store, the echo
// peer — shares one CPU. The loops are closed, so whenever one side waits
// the other runs: the CPU is never idle, and a hand-over is a context
// switch. Spread over the two CPUs of the machine this is built for, each
// hand-over instead wakes a halted virtual CPU through the hypervisor,
// which on this host costs some 100 us against the 15 us of the whole
// loopback round trip on one CPU, and varies by a factor of four with what
// the host's other guests do: the benchmark would measure that. On one CPU
// events per second is also plainly one over the CPU time an event costs
// all processes together, which is the thing an optimisation changes.

// cpuSet is a sched_setaffinity(2) mask, wide enough for 1024 CPUs.
type cpuSet [16]uint64

// pinnedEnv marks a process that has re-executed itself bound to one CPU.
const pinnedEnv = "ARMUS_BENCH_PINNED"

// pinSelf re-executes this process bound to the last CPU it is allowed (the
// first one serves the devices' interrupts), unless it already is the
// re-executed one. Starting over is the only way
// to bind every thread of a Go process, the runtime's own included, and
// lets the runtime size GOMAXPROCS by its default rule; every subprocess
// started later inherits the binding.
func pinSelf(self string) error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	var allowed, one cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return errno
	}
	for i := len(allowed) - 1; i >= 0; i-- {
		if w := allowed[i]; w != 0 {
			one[i] = 1 << (bits.Len64(w) - 1)
			break
		}
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		return errno
	}
	return syscall.Exec(self, os.Args, append(os.Environ(), pinnedEnv+"=1"))
}
