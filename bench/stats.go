package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of an ascending slice
// by nearest rank: the smallest value with at least a share q of the
// samples at or below it. An empty slice yields 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supports reports whether n samples leave at least ten beyond the
// q-quantile, the rule for which tail percentile a sample can carry.
func supports(n int, q float64) bool {
	// The rank is rounded with a hair of slack: 0.9*100 must count as 90.
	return float64(n)-math.Ceil(q*float64(n)-1e-9) >= 10
}

// sortedCopy returns values in ascending order without touching the
// input.
func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (mean of the middle two for an even
// count); 0 for an empty slice.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so a
// spread computed here is the spread the driver computes. Fewer than two
// values have no quartiles; both results are then the single value.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median, the
// steadiness figure the benchmark's bounds are judged against.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return math.Abs((q3 - q1) / med)
}

// windowRate buckets event times (ns since the run's epoch) into
// consecutive windows of windowNs covering [startNs, endNs) and returns
// the median events-per-second over the full windows, plus how many full
// windows there were. A partial last window is dropped. The median makes
// one stalled window (a GC pause, a descheduled vCPU) cost nothing.
func windowRate(eventsNs []int64, startNs, endNs, windowNs int64) (perSec float64, windows int) {
	windows = int((endNs - startNs) / windowNs)
	if windows <= 0 {
		return 0, 0
	}
	counts := make([]float64, windows)
	for _, t := range eventsNs {
		if t < startNs {
			continue
		}
		w := int((t - startNs) / windowNs)
		if w < windows {
			counts[w]++
		}
	}
	return median(counts) / (float64(windowNs) / 1e9), windows
}
