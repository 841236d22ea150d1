package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuNow reads the calling OS thread's CPU clock (Linux
// CLOCK_THREAD_CPUTIME_ID). Time the host steals from the virtual CPU, and
// time the thread waits for a CPU, do not advance it, so rounds timed on it
// keep still when neighbours load the machine. Callers lock their goroutine
// to its thread first.
func cpuNow() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
