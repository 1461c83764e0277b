package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram. Observe is lock-free and
// allocation-free: one bounded scan over the bucket bounds plus three
// atomic updates. The zero value is unusable; obtain histograms from a
// Registry. All methods no-op on a nil receiver.
type Histogram struct {
	name, help string
	// upper holds the ascending bucket upper bounds; the final +Inf
	// bucket is implicit (counts has one extra slot for it).
	upper []float64
	// counts are per-bucket (non-cumulative) observation tallies.
	counts []atomic.Uint64
	count  atomic.Uint64
	// sumBits carries the float64 sum as raw bits, CAS-updated.
	sumBits atomic.Uint64
}

func newHistogram(name, help string, buckets []float64) *Histogram {
	upper := make([]float64, 0, len(buckets))
	for i, b := range buckets {
		if i > 0 && b <= buckets[i-1] {
			panic("telemetry: histogram buckets must be strictly ascending")
		}
		if !math.IsInf(b, +1) {
			upper = append(upper, b)
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		upper:  upper,
		counts: make([]atomic.Uint64, len(upper)+1),
	}
}

// Observe records one value.
//
//greenvet:hotpath instrument mutator called per message; pinned zero-alloc by TestHotPathAllocationFree
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
//
//greenvet:hotpath instrument mutator called per message; pinned zero-alloc by TestHotPathAllocationFree
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) snapshot() Metric {
	m := Metric{
		Name:    h.name,
		Help:    h.help,
		Kind:    KindHistogram,
		Buckets: make([]Bucket, len(h.upper)+1),
		Sum:     h.Sum(),
		Count:   h.Count(),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		upper := math.Inf(+1)
		if i < len(h.upper) {
			upper = h.upper[i]
		}
		m.Buckets[i] = Bucket{Upper: upper, Count: cum}
	}
	return m
}

// DurationBuckets is a general-purpose latency bucket layout in seconds,
// 10µs to ~10s in roughly 3x steps.
func DurationBuckets() []float64 {
	return []float64{
		1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10,
	}
}
