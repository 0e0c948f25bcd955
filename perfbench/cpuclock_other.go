//go:build !linux

package main

import "time"

var processStart = time.Now()

// cpuNow falls back to wall time since start where the process CPU
// clock is not wired up.
func cpuNow() time.Duration { return time.Since(processStart) }
