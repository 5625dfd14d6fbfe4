package main

import (
	"math"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"syscall"
)

// nearestRank returns the p-quantile (0 < p <= 1) of values by the
// nearest-rank rule. It sorts values in place; 0 for no values.
func nearestRank(values []int64, p float64) int64 {
	if len(values) == 0 {
		return 0
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	rank := int(p*float64(len(values))+0.5) - 1
	rank = max(0, min(rank, len(values)-1))
	return values[rank]
}

// nearestRankFloat is nearestRank for float values (sorted in place);
// NaN for no values.
func nearestRankFloat(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	rank := int(p*float64(len(values))+0.5) - 1
	return values[max(0, min(rank, len(values)-1))]
}

// median of a float slice (sorted in place); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSBytes is the process's peak resident set size so far.
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// allocCounts returns the cumulative heap bytes and objects allocated.
func allocCounts() (bytes, objects uint64) {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}

// gcSample is a snapshot of the Go runtime's collector counters.
type gcSample struct {
	cycles  uint64
	pauseNs uint64
	cpuS    float64
}

func readGC() gcSample {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	g := gcSample{cycles: uint64(m.NumGC), pauseNs: m.PauseTotalNs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.cpuS = s[0].Value.Float64()
	}
	return g
}

// heapObjectBytes is the heap occupied by objects, live or not yet
// swept, read without stopping the world.
func heapObjectBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
