package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"esds/internal/core"
)

// counters is one snapshot of every monotone counter the per-layer
// metrics are deltas of. Fields a workload's path does not have stay zero.
type counters struct {
	replica      core.ReplicaMetrics
	faults       int // entries in the keyspaces' fault logs
	frames       uint64
	bytes        uint64
	flushes      uint64
	dropped      uint64
	foreign      uint64
	feRequests   uint64
	batchTarget  int
	syncs        uint64
	records      uint64
	journalBytes uint64
}

// procSample is the process-level state at one instant.
type procSample struct {
	cpu      time.Duration // user + system, getrusage(RUSAGE_SELF)
	mallocs  uint64
	alloc    uint64
	gcCPU    float64 // runtime/metrics GC CPU seconds
	totalCPU float64 // runtime/metrics total CPU seconds
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// procCPU returns the process's user + system CPU time.
func procCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	copy(s, cpuMetrics)
	metrics.Read(s)
	return procSample{
		cpu:      procCPU(),
		mallocs:  ms.Mallocs,
		alloc:    ms.TotalAlloc,
		gcCPU:    floatOf(s[0]),
		totalCPU: floatOf(s[1]),
	}
}

func floatOf(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule,
// sorting xs in place; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs (sorting a copy): the middle value, or
// the mean of the two middle values of an even count; 0 for no samples.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	switch n := len(c); {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

func perOp(x uint64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(x) / float64(ops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
