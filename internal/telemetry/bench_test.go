package telemetry_test

import (
	"io"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/telemetry"
)

// TestHotPathAllocationFree pins the subsystem's core contract: the
// instrument mutators — Counter.Inc and Add, Gauge.Set and Add,
// Histogram.Observe and ObserveDuration — allocate nothing.
func TestHotPathAllocationFree(t *testing.T) {
	r := telemetry.New(nil)
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", telemetry.DurationBuckets())
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(3)
		g.Add(-1)
		h.Observe(1e-4)
		h.ObserveDuration(250 * time.Microsecond)
	}); n != 0 {
		t.Fatalf("hot path allocates %v times per op, want 0", n)
	}
	var nilC *telemetry.Counter
	var nilH *telemetry.Histogram
	if n := testing.AllocsPerRun(1000, func() {
		nilC.Inc()
		nilH.Observe(1)
	}); n != 0 {
		t.Fatalf("disabled path allocates %v times per op, want 0", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := telemetry.New(nil).Counter("c_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := telemetry.New(nil).Counter("c_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *telemetry.Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := telemetry.New(nil).Histogram("h_seconds", "", telemetry.DurationBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%13) * 1e-4)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := telemetry.New(nil).Histogram("h_seconds", "", telemetry.DurationBuckets())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i%13) * 1e-4)
			i++
		}
	})
}

func BenchmarkSnapshot(b *testing.B) {
	r := telemetry.New(map[string]string{"broker": "B001"})
	for i := 0; i < 8; i++ {
		r.Counter("c"+string(rune('a'+i))+"_total", "help").Add(int64(i))
	}
	r.Histogram("h_seconds", "", telemetry.DurationBuckets()).Observe(0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := telemetry.New(map[string]string{"broker": "B001"})
	for i := 0; i < 8; i++ {
		r.Counter("c"+string(rune('a'+i))+"_total", "help").Add(int64(i))
	}
	r.Histogram("h_seconds", "", telemetry.DurationBuckets()).Observe(0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.WritePrometheus(io.Discard)
	}
}
