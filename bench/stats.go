package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice,
// interpolating linearly between the two closest ranks. An empty slice
// yields NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 || q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 0.5-quantile of an unsorted slice.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// percentileLadder lists the reportable percentiles in units of 0.01%,
// lowest first.
var percentileLadder = []int{5000, 9000, 9900, 9990, 9999}

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile, in units of
// 0.01%, that has at least minBeyond of n samples beyond it; ok is false
// when even the median lacks them. Integer arithmetic keeps the rule
// exact at the boundaries (n=100 reports p90, n=1000 reports p99).
func tailPercentile(n int) (p int, ok bool) {
	for i := len(percentileLadder) - 1; i >= 0; i-- {
		pp := percentileLadder[i]
		if n*(10000-pp) >= minBeyond*10000 {
			return pp, true
		}
	}
	return 0, false
}

// nsToMS converts a slice of nanosecond durations to milliseconds.
func nsToMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
