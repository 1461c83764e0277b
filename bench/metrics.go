package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// metricDef names one reported metric. The catalogue below and
// BENCHMARK.json declare the same names and units; TestCatalogueMatches
// keeps them equal.
type metricDef struct {
	name, unit string
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (the driver gates each pairing), so the names are
// neutral and README.md says what each means on a wire workload and on a
// plan workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_rate", "1/s"},
	{"cpu_us_per_op", "us"},
	{"wait_p50_ms", "ms"},
	{"brokers", "brokers"},
	{"msg_rate", "msgs/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the single-layer metrics of the traced pass, grouped by
// the internal/ package they time or count. A layer the workload does
// not execute reports 0.
var perLayer = []metricDef{
	{"message.encode_ns", "ns"},
	{"message.decode_ns", "ns"},
	{"message.pub_bytes", "bytes"},
	{"message.bia_encode_s", "s"},
	{"message.bia_decode_s", "s"},
	{"message.bia_bytes", "bytes"},

	{"transport.frame_encode_ns", "ns"},
	{"transport.send_ns", "ns"},
	{"transport.recv_ns", "ns"},
	{"transport.pool_hit_ratio", "ratio"},
	{"transport.encode_busy_s", "s"},
	{"transport.decode_busy_s", "s"},
	{"transport.frames_sent", "count"},
	{"transport.bytes_sent", "bytes"},
	{"transport.write_timeouts", "count"},

	{"matching.match_ns", "ns"},
	{"matching.hits_per_pub", "count"},

	{"broker.handle_batch_ns", "ns"},
	{"broker.out_per_pub", "count"},
	{"broker.B0.queue_depth_mean", "count"},
	{"broker.B0.queue_depth_max", "count"},
	{"broker.B1.queue_depth_mean", "count"},
	{"broker.B1.queue_depth_max", "count"},
	{"broker.B2.queue_depth_mean", "count"},
	{"broker.B2.queue_depth_max", "count"},
	{"broker.msgs_in", "count"},
	{"broker.pubs_forwarded", "count"},
	{"broker.pubs_delivered", "count"},
	{"broker.limiter_wait_s", "s"},

	{"client.publish_ns_mean", "ns"},
	{"client.publish_ns_p99", "ns"},

	{"core.inputs_s", "s"},
	{"core.allocate_s", "s"},
	{"core.build_s", "s"},
	{"core.grape_s", "s"},
	{"core.plan_binpacking_s", "s"},
	{"core.plan_fbf_s", "s"},

	{"allocation.gifs", "count"},
	{"allocation.final_units", "count"},
	{"allocation.closeness_comps", "count"},
	{"allocation.bound_pruned", "count"},
	{"allocation.prune_ratio", "ratio"},
	{"allocation.cover_comps", "count"},
	{"allocation.pack_attempts", "count"},
	{"allocation.clusters_accepted", "count"},
	{"allocation.clusters_rejected", "count"},
	{"allocation.shards_pruned", "count"},
	{"allocation.spilled_runs", "count"},

	{"bitvector.closeness_ios_ns", "ns"},
	{"bitvector.closeness_xor_ns", "ns"},
	{"bitvector.upper_bound_ns", "ns"},
	{"bitvector.estimate_load_ns", "ns"},
	{"bitvector.intersect_load_ns", "ns"},

	{"poset.insert_s", "s"},
	{"poset.relate_count", "count"},
	{"poset.search_ns", "ns"},

	{"extsort.sort_ns_per_rec", "ns"},
	{"extsort.runs", "count"},

	{"sim.validate_s", "s"},
	{"sim.deliveries", "count"},
	{"sim.avg_hops", "count"},
	{"sim.avg_delay_ms", "ms"},

	{"bench.gen_late_p50_ms", "ms"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.lat_p90_ms", "ms"},
	{"bench.lat_p99_ms", "ms"},
	{"bench.lat_p999_ms", "ms"},
	{"bench.lat_samples", "count"},
	{"bench.ladder4x_p50_ms", "ms"},
	{"bench.ladder4x_p90_ms", "ms"},
	{"bench.ladder4x_gen_late_p99_ms", "ms"},
	{"bench.ladder8x_p50_ms", "ms"},
	{"bench.ladder8x_p90_ms", "ms"},
	{"bench.ladder8x_gen_late_p99_ms", "ms"},
	{"bench.sustained_rate", "1/s"},
	{"bench.invalid_phases", "count"},
	{"bench.trace_overhead", "ratio"},
	{"bench.host_speed", "ratio"},

	{"runtime.mallocs_per_delivery", "count"},
	{"runtime.alloc_bytes_per_delivery", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.plan_alloc_mb", "MB"},
}

// result is the outcome of one pass of one workload.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Attempted and Failed count operations: deliveries on a wire
	// workload, correctness checks and placed subscriptions on a plan
	// workload. A failed check is a failed operation.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Values holds the reported metrics by catalogue name. Times and
	// rates are normalised by the host speed measured while they were
	// taken (see calib.go); Raw holds what the clock actually read.
	Values map[string]float64 `json:"values"`
	Raw    map[string]float64 `json:"raw,omitempty"`
	// Samples gives the sample count behind each percentile metric.
	Samples map[string]int `json:"samples,omitempty"`
	// Digest identifies a plan workload's output; the traced and the
	// untraced pass of one seed must agree on it.
	Digest string `json:"digest,omitempty"`
	// Invalid names open-loop phases whose generator ran later than one
	// tick at p99: their latencies are reported but describe the host,
	// not the system.
	Invalid []string `json:"invalid_phases,omitempty"`
	// Notes explains every failed operation.
	Notes []string `json:"notes,omitempty"`
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{
		Workload: workload, Seed: seed, Traced: traced,
		Values: make(map[string]float64), Raw: make(map[string]float64), Samples: make(map[string]int),
	}
}

func (r *result) set(name string, v float64) { r.Values[name] = v }

// setRaw records a normalised value together with the raw reading it was
// derived from.
func (r *result) setRaw(name string, v, raw float64) {
	r.Values[name] = v
	r.Raw[name] = raw
}

// check counts one attempted operation and, when ok is false, one failed
// operation with its reason.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(1, format, args...)
	}
}

// fail counts n failed operations (already counted as attempted by the
// caller) and keeps the reason.
func (r *result) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	if len(r.Notes) < 32 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// catalogue returns the metric list this pass reports.
func (r *result) catalogue() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// finish makes the result printable: an end-to-end metric the pass did
// not produce, or a value that is not a finite number, is a failed
// operation, never a silent zero.
func (r *result) finish() {
	for _, m := range r.catalogue() {
		v, ok := r.Values[m.name]
		switch {
		case !ok && !r.Traced:
			r.check(false, "metric %s was not measured", m.name)
			r.Values[m.name] = 0
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.check(false, "metric %s is %v", m.name, v)
			r.Values[m.name] = 0
		}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		r.fail(1, "the pass attempted no operation")
	}
}

// printHuman lists every metric by name with its unit.
func (r *result) printHuman(w io.Writer) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d (%s pass): %d attempted, %d failed\n",
		r.Workload, r.Seed, pass, r.Attempted, r.Failed)
	for _, m := range r.catalogue() {
		line := fmt.Sprintf("  %-34s %16.6g %s", m.name, r.Values[m.name], m.unit)
		if raw, ok := r.Raw[m.name]; ok {
			line += fmt.Sprintf("  (raw %.6g)", raw)
		}
		if n, ok := r.Samples[m.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "  digest %s\n", r.Digest)
	}
	for _, p := range r.Invalid {
		fmt.Fprintf(w, "  invalid phase: %s\n", p)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}

// contractLine is the one-line JSON object the driver reads from the last
// line of standard output.
func (r *result) contractLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]mv)}
	for _, m := range r.catalogue() {
		out.Metrics[m.name] = mv{Value: r.Values[m.name], Unit: m.unit}
	}
	return json.Marshal(out)
}

// pass is the context of one run of one workload: the clock everything is
// timed against, the host-speed calibration, the span recorder (nil in an
// untraced pass) and the result being filled in.
type pass struct {
	epoch time.Time
	cal   *calibration
	tr    *tracer
	res   *result
}

// newPass starts a pass on the calling goroutine, which must then run the
// workload itself and finish the calibration: a plan workload's work is
// that one goroutine, and the calibration pins it beside its sampling
// thread.
func newPass(workload string, seed int64, traced bool) *pass {
	p := &pass{epoch: time.Now(), res: newResult(workload, seed, traced)}
	_, wire := wireSpecs[workload]
	p.cal = startCalibration(p.epoch, !wire)
	if traced {
		p.tr = newTracer(workload, seed, p.epoch)
	}
	return p
}

// now returns the time since the pass began, in ns.
func (p *pass) now() int64 { return time.Since(p.epoch).Nanoseconds() }

// cpu returns the CPU time the process has consumed on the workload, the
// calibration's own excluded.
func (p *pass) cpu() time.Duration {
	return cpuTime() - p.cal.spentCPU()
}

// setupTime runs a set-up step and returns the process CPU time it
// consumed in seconds, raw and normalised by the host speed while it ran.
// Set-up is timed on the CPU clock, not the wall clock: it counts the work
// a change moves into set-up on whichever thread it lands, which is what
// setup_s is gated for, and on the wire workloads, whose set-up is a few
// milliseconds of connection hand-offs between two vCPUs, it does not
// count the wake-up latencies that made the wall time of single set-ups of
// one run differ by 2x.
func (p *pass) setupTime(fn func()) (norm, raw float64) {
	t0, c0 := p.now(), p.cpu()
	fn()
	raw = (p.cpu() - c0).Seconds()
	return raw * p.cal.speedOver(t0, p.now()), raw
}

// timed runs fn and returns its wall time in seconds, raw and normalised
// by the host speed while it ran.
func (p *pass) timed(fn func()) (norm, raw float64) {
	t0 := p.now()
	fn()
	t1 := p.now()
	raw = float64(t1-t0) / 1e9
	return raw * p.cal.speedOver(t0, t1), raw
}
