package telemetry_test

import (
	"math"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/telemetry"
)

func TestHistogramBuckets(t *testing.T) {
	r := telemetry.New(nil)
	h := r.Histogram("h", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 50, 1000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d metrics", len(snap))
	}
	m := snap[0]
	if m.Kind != telemetry.KindHistogram {
		t.Fatalf("kind = %v", m.Kind)
	}
	// Cumulative: <=1: {0.5, 1} = 2; <=10: +{1.5, 10} = 4; <=100: +{50} = 5; +Inf: 6.
	wantCum := []uint64{2, 4, 5, 6}
	if len(m.Buckets) != len(wantCum) {
		t.Fatalf("%d buckets, want %d", len(m.Buckets), len(wantCum))
	}
	for i, want := range wantCum {
		if m.Buckets[i].Count != want {
			t.Errorf("bucket %d count = %d, want %d", i, m.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(m.Buckets[len(m.Buckets)-1].Upper, +1) {
		t.Error("final bucket must be +Inf")
	}
	if m.Count != 6 || m.Sum != 1063 {
		t.Errorf("count=%d sum=%g, want 6/1063", m.Count, m.Sum)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	r := telemetry.New(nil)
	h := r.Histogram("lat_seconds", "", telemetry.DurationBuckets())
	h.ObserveDuration(250 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("sum = %g, want 0.25", got)
	}
}

func TestBucketLayoutsAscending(t *testing.T) {
	b := telemetry.DurationBuckets()
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Errorf("duration buckets not ascending at %d: %v", i, b)
		}
	}
}

func TestExplicitInfBucketDropped(t *testing.T) {
	r := telemetry.New(nil)
	h := r.Histogram("h", "", []float64{1, math.Inf(+1)})
	h.Observe(2)
	m := r.Snapshot()[0]
	// One finite bound plus the implicit +Inf — no double-Inf bucket.
	if len(m.Buckets) != 2 {
		t.Fatalf("%d buckets, want 2", len(m.Buckets))
	}
}
