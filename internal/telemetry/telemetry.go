// Package telemetry is the live stack's instrumentation subsystem:
// atomic counters and gauges, fixed-bucket histograms, and named span
// timelines, collected in a Registry that snapshots deterministically
// (sorted names) and renders both Prometheus text exposition and
// metrics.Series tables.
//
// Design constraints, in order:
//
//  1. Allocation-free on the hot path. Counter.Add, Gauge.Set, and
//     Histogram.Observe are single atomic operations (plus a bounded
//     bucket scan); none of them allocates, locks, or reads a clock.
//  2. Free when disabled. Every instrument method no-ops on a nil
//     receiver, and a nil *Registry hands out nil instruments, so an
//     uninstrumented broker pays one predictable nil check per site.
//  3. Outside the deterministic core. The allocation core
//     (internal/{allocation,poset,bitvector,core}) must stay a pure
//     function of its inputs, so it never imports this package —
//     greenvet's nondet analyzer enforces the boundary mechanically,
//     import and call sites both. Telemetry observes the live path; it
//     never feeds back into plan computation.
//  4. No hidden clock. This package never reads the wall clock; spans
//     and rates take time.Time values or injected clock functions from
//     the caller (the core.Config.Clock pattern), which keeps telemetry
//     testable on a virtual clock. greenvet's nondet analyzer flags any
//     time.Now reference that sneaks in.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is unusable; obtain counters from a Registry. All methods are safe for
// concurrent use and no-op on a nil receiver.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
//
//greenvet:hotpath instrument mutator called per message; pinned zero-alloc by TestHotPathAllocationFree
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics; this is
// not checked on the hot path).
//
//greenvet:hotpath instrument mutator called per message; pinned zero-alloc by TestHotPathAllocationFree
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, connection
// count). All methods are safe for concurrent use and no-op on a nil
// receiver.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores the current value.
//
//greenvet:hotpath instrument mutator called per message; pinned zero-alloc by TestHotPathAllocationFree
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by delta (may be negative).
//
//greenvet:hotpath instrument mutator called per message; pinned zero-alloc by TestHotPathAllocationFree
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Kind distinguishes metric types in snapshots.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String names the kind as Prometheus spells it.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// Upper is the inclusive upper bound; the final bucket is +Inf.
	Upper float64
	// Count is the cumulative number of observations <= Upper.
	Count uint64
}

// Metric is one snapshotted value.
type Metric struct {
	Name string
	Help string
	Kind Kind
	// Value holds counter and gauge readings.
	Value int64
	// Buckets, Sum, and Count hold histogram readings.
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// instrument is the Registry-internal view of one registered metric.
type instrument interface {
	metricName() string
	snapshot() Metric
}

func (c *Counter) metricName() string { return c.name }
func (c *Counter) snapshot() Metric {
	return Metric{Name: c.name, Help: c.help, Kind: KindCounter, Value: c.Value()}
}

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) snapshot() Metric {
	return Metric{Name: g.name, Help: g.help, Kind: KindGauge, Value: g.Value()}
}

// Registry owns a named set of instruments. Instrument registration
// (Counter/Gauge/Histogram) takes a lock and is meant for startup;
// the returned instruments are then lock-free. A nil *Registry is the
// disabled state: it returns nil instruments and empty snapshots.
type Registry struct {
	// labels is the pre-rendered constant label set ("" or
	// `broker="B001",tier="50"`), applied to every exposed metric.
	labels string

	mu          sync.Mutex
	instruments map[string]instrument
}

// New creates a Registry. constLabels (may be nil) are attached to every
// metric in Prometheus exposition, rendered in sorted key order so
// output is deterministic.
func New(constLabels map[string]string) *Registry {
	keys := make([]string, 0, len(constLabels))
	for k := range constLabels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	labels := ""
	for i, k := range keys {
		if i > 0 {
			labels += ","
		}
		labels += fmt.Sprintf("%s=%q", k, constLabels[k])
	}
	return &Registry{labels: labels, instruments: make(map[string]instrument)}
}

// validName reports whether name is a legal Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		letter := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !letter && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register get-or-creates an instrument under name. Re-registering the
// same name returns the existing instrument; registering it as a
// different kind panics (a programmer error caught at startup).
func (r *Registry) register(name string, mk func() instrument) instrument {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.instruments[name]; ok {
		return existing
	}
	in := mk()
	r.instruments[name] = in
	return in
}

// Counter registers (or returns the existing) counter under name.
// Returns nil on a nil Registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	in := r.register(name, func() instrument { return &Counter{name: name, help: help} })
	c, ok := in.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %s already registered as a non-counter", name))
	}
	return c
}

// Gauge registers (or returns the existing) gauge under name. Returns
// nil on a nil Registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	in := r.register(name, func() instrument { return &Gauge{name: name, help: help} })
	g, ok := in.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: %s already registered as a non-gauge", name))
	}
	return g
}

// Histogram registers (or returns the existing) histogram under name
// with the given ascending bucket upper bounds (a final +Inf bucket is
// implicit). Returns nil on a nil Registry.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	in := r.register(name, func() instrument { return newHistogram(name, help, buckets) })
	h, ok := in.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: %s already registered as a non-histogram", name))
	}
	return h
}

// Snapshot returns every registered metric sorted by name. Values are
// read atomically per instrument; a histogram snapshot taken while
// observations are in flight may be mid-update across fields (counts
// and sum drift by the in-flight observations), which is the standard
// scrape-consistency contract.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.instruments))
	for name := range r.instruments {
		names = append(names, name)
	}
	ins := make([]instrument, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		ins = append(ins, r.instruments[name])
	}
	r.mu.Unlock()
	out := make([]Metric, 0, len(ins))
	for _, in := range ins {
		out = append(out, in.snapshot())
	}
	return out
}
