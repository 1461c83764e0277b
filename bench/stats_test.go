package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSupportsTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{{999, 0.99, false}, {1000, 0.99, true}, {8000, 0.999, false}, {10000, 0.999, true}, {100, 0.9, true}} {
		if got := supports(tc.n, tc.q); got != tc.want {
			t.Errorf("supports(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// returns, since that is what the driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("spread of a constant = %v", got)
	}
}

func TestWindowRate(t *testing.T) {
	const ms = int64(1e6)
	// Windows of 100 ms from t=1000 ms: 3, 1, 2 events, then a partial
	// window that must be dropped, and one event before the start.
	events := []int64{
		900 * ms,
		1000 * ms, 1050 * ms, 1099 * ms,
		1100 * ms,
		1200 * ms, 1299 * ms,
		1310 * ms, 1320 * ms, 1330 * ms, 1340 * ms,
	}
	rate, windows := windowRate(events, 1000*ms, 1350*ms, 100*ms)
	if windows != 3 {
		t.Fatalf("windows = %d, want 3", windows)
	}
	// Median count 2 per 0.1 s.
	if rate != 20 {
		t.Errorf("rate = %v, want 20", rate)
	}
	if rate, windows := windowRate(events, 1000*ms, 1050*ms, 100*ms); rate != 0 || windows != 0 {
		t.Errorf("a stretch shorter than one window gave %v over %d windows", rate, windows)
	}
}
