package telemetry_test

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/greenps/greenps/internal/telemetry"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := telemetry.New(nil)
	c := r.Counter("msgs_total", "messages")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	// Re-registration returns the same instrument.
	if r.Counter("msgs_total", "messages") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestNilRegistryAndInstrumentsNoOp(t *testing.T) {
	var r *telemetry.Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", telemetry.DurationBuckets())
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry exposition wrote %q, err %v", buf.String(), err)
	}
}

func TestSnapshotSortedAndDeterministic(t *testing.T) {
	r := telemetry.New(nil)
	r.Counter("zebra_total", "").Add(1)
	r.Gauge("alpha", "").Set(2)
	r.Histogram("mid_seconds", "", []float64{1, 2})
	snap := r.Snapshot()
	var names []string
	for _, m := range snap {
		names = append(names, m.Name)
	}
	want := []string{"alpha", "mid_seconds", "zebra_total"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("snapshot order = %v, want %v", names, want)
	}
	// Two renders of an idle registry are byte-identical.
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("exposition is not deterministic")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := telemetry.New(map[string]string{"broker": "B001", "az": "a"})
	r.Counter("greenps_broker_msgs_in_total", "messages received").Add(42)
	h := r.Histogram("greenps_latency_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP greenps_broker_msgs_in_total messages received",
		"# TYPE greenps_broker_msgs_in_total counter",
		`greenps_broker_msgs_in_total{az="a",broker="B001"} 42`,
		"# TYPE greenps_latency_seconds histogram",
		`greenps_latency_seconds_bucket{az="a",broker="B001",le="0.1"} 1`,
		`greenps_latency_seconds_bucket{az="a",broker="B001",le="1"} 2`,
		`greenps_latency_seconds_bucket{az="a",broker="B001",le="+Inf"} 3`,
		`greenps_latency_seconds_sum{az="a",broker="B001"} 5.55`,
		`greenps_latency_seconds_count{az="a",broker="B001"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := telemetry.New(map[string]string{"broker": "B9"})
	r.Counter("hits_total", "hits").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(buf.String(), `hits_total{broker="B9"} 1`) {
		t.Fatalf("scrape output:\n%s", buf.String())
	}
}

func TestInvalidRegistrationsPanic(t *testing.T) {
	r := telemetry.New(nil)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("invalid name", func() { r.Counter("bad name", "") })
	r.Counter("taken", "")
	mustPanic("kind conflict", func() { r.Gauge("taken", "") })
	mustPanic("unsorted buckets", func() { r.Histogram("h", "", []float64{2, 1}) })
}

// TestConcurrentInstruments hammers one registry from many goroutines;
// run under -race this is the subsystem's data-race gate.
func TestConcurrentInstruments(t *testing.T) {
	r := telemetry.New(map[string]string{"broker": "B1"})
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Concurrent registration of the same names must converge on
			// shared instruments.
			c := r.Counter("c_total", "")
			g := r.Gauge("g", "")
			h := r.Histogram("h_seconds", "", telemetry.DurationBuckets())
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%7) * 1e-4)
				if i%256 == 0 {
					_ = r.Snapshot() // concurrent scrape
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c_total", "").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g", "").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("h_seconds", "", telemetry.DurationBuckets())
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}
