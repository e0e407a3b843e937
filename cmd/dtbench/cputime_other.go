//go:build !linux

package main

import (
	"errors"
	"time"
)

// threadCPU reports that no per-thread CPU clock is wired up here;
// measureOverhead then times its pairs on the wall clock.
func threadCPU() (time.Duration, error) {
	return 0, errors.New("no per-thread CPU clock on this platform")
}
