//go:build linux

package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID from <time.h>, which
// package syscall does not name. It reads the calling thread's scheduler
// runtime in nanoseconds; getrusage(RUSAGE_THREAD) reports the same
// quantity only to scheduler-tick (4 ms) granularity on common kernels,
// as coarse as the whole-run differences being measured.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time the calling OS thread has consumed.
// Callers lock their goroutine to its thread first.
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}
