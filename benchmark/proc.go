package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// procSnap is a point-in-time reading of what the process has burned.
type procSnap struct {
	cpuS      float64
	mallocs   uint64
	allocB    uint64
	gcCycles  uint32
	gcPauseNs uint64
}

func readProc() procSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procSnap{
		cpuS:      tv(ru.Utime) + tv(ru.Stime),
		mallocs:   ms.Mallocs,
		allocB:    ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcPauseNs: ms.PauseTotalNs,
	}
}

// procMetrics turns the before/after readings around a measured window of
// ops operations into the proc.* per-layer metrics.
func procMetrics(rec *recorder, before, after procSnap, ops int) {
	n := float64(max(ops, 1))
	rec.set("proc.cpu_s_per_op", (after.cpuS-before.cpuS)/n)
	rec.set("proc.allocs_per_op", float64(after.mallocs-before.mallocs)/n)
	rec.set("proc.alloc_mb_per_op", float64(after.allocB-before.allocB)/(1<<20)/n)
	rec.set("proc.gc_cycles", float64(after.gcCycles-before.gcCycles))
	rec.set("proc.gc_pause_ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6)
}
