//go:build !linux

package main

import (
	"errors"
	"time"
)

// errNoProc stops a run where Linux's /proc is missing: peak_rss_mb is
// the VmHWM of /proc/self/status, reset through /proc/self/clear_refs.
var errNoProc = errors.New("peak_rss_mb is read from Linux's /proc; the benchmark runs on Linux only")

func resetPeakRSS() error { return errNoProc }

func peakRSSMB() (float64, error) { return 0, errNoProc }

// cpuTime is not measured here; runs stop at resetPeakRSS before any
// caller reads it.
func cpuTime() time.Duration { return 0 }
