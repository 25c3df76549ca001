package main

import (
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is sorted in place; empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeCounts are the allocator's cumulative counters.
type runtimeCounts struct{ mallocs, bytes uint64 }

func readRuntimeCounts() runtimeCounts {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCounts{m.Mallocs, m.TotalAlloc}
}
