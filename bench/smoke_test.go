package main

import (
	"testing"
	"time"
)

// smokeDeadline is the hard limit of one workload's two toy passes: the
// harness is part of the tests and must not be able to hang them.
const smokeDeadline = 10 * time.Second

// toyWire shrinks a wire workload to a 1 s pass over 400 subscriptions.
func toyWire(name string) wireSpec {
	spec := wireSpecs[name]
	spec.symbols = 20
	spec.filler = 400 - spec.symbols*spec.fan - 1
	spec.setups = 2
	spec.warmup = 100 * time.Millisecond
	spec.rateWindow = 50 * time.Millisecond
	spec.drainLimit = 3 * time.Second
	return spec
}

var (
	toyPaper = paperSpec{
		brokers: 10, publishers: 5, subsPerPublisher: 80,
		profileRounds: 40, measureRounds: 5, pairs: 500, searches: 20,
	}
	// 4 KiB is the smallest budget the sorter honours, so that even a
	// thousand subscriptions spill.
	toyScale = scaleSpec{subs: 1000, shards: 4, spillBudget: 4 << 10, setups: 2, requireMechanisms: true, pairs: 500}
)

// bothPasses runs the untraced and the traced pass of one workload at toy
// scale under the deadline and checks what every workload must satisfy.
func bothPasses(t *testing.T, workload string, runOne func(p *pass) error, layerMetrics ...string) {
	t.Helper()
	type outcome struct {
		res [2]*result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		for traced := 0; traced <= 1 && o.err == nil; traced++ {
			p := newPass(workload, 1, traced == 1)
			o.err = runOne(p)
			p.cal.finish()
			p.res.finish()
			o.res[traced] = p.res
		}
		done <- o
	}()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(smokeDeadline):
		dumpGoroutines(workload + " smoke run exceeded its deadline")
		t.Fatalf("%s: the toy passes did not finish within %v", workload, smokeDeadline)
	}
	if o.err != nil {
		t.Fatalf("%s: %v", workload, o.err)
	}
	for _, res := range o.res {
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s traced=%v: %d of %d operations failed: %v", workload, res.Traced, res.Failed, res.Attempted, res.Notes)
		}
	}
	for _, m := range endToEnd {
		if v := o.res[0].Values[m.name]; !(v > 0) {
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", workload, m.name, v)
		}
	}
	for _, name := range layerMetrics {
		if v := o.res[1].Values[name]; !(v > 0) {
			t.Errorf("%s: per-layer metric %s = %v, must be positive", workload, name, v)
		}
	}
	if o.res[0].Digest != o.res[1].Digest {
		t.Errorf("%s: the untraced pass produced %s, the traced pass %s", workload, o.res[0].Digest, o.res[1].Digest)
	}
}

func TestSmokeWireChain3(t *testing.T) {
	spec := toyWire("wire_chain3")
	bothPasses(t, spec.name, func(p *pass) error { return runWire(p, spec, 1) },
		"message.encode_ns", "message.decode_ns", "transport.frame_encode_ns", "transport.send_ns", "transport.recv_ns",
		"transport.decode_busy_s", "transport.frames_sent", "matching.match_ns", "broker.handle_batch_ns",
		"broker.msgs_in", "broker.pubs_forwarded", "broker.pubs_delivered", "client.publish_ns_mean",
		"bench.lat_p90_ms", "bench.ladder4x_p50_ms", "bench.trace_overhead", "runtime.mallocs_per_delivery")
}

func TestSmokeWireFanout16(t *testing.T) {
	spec := toyWire("wire_fanout16")
	bothPasses(t, spec.name, func(p *pass) error { return runWire(p, spec, 1) },
		"message.pub_bytes", "matching.hits_per_pub", "broker.out_per_pub", "broker.pubs_delivered", "bench.lat_samples")
}

func TestSmokePlanPaper(t *testing.T) {
	bothPasses(t, "plan_paper8k", func(p *pass) error { return runPaper(p, toyPaper, 0.2) },
		"core.allocate_s", "core.plan_binpacking_s", "core.plan_fbf_s", "allocation.gifs", "allocation.closeness_comps",
		"message.bia_bytes", "bitvector.closeness_ios_ns", "bitvector.intersect_load_ns", "poset.insert_s", "poset.relate_count",
		"poset.search_ns", "matching.match_ns", "broker.handle_batch_ns", "sim.deliveries", "runtime.plan_alloc_mb")
}

func TestSmokeAllocScale(t *testing.T) {
	dir := t.TempDir()
	bothPasses(t, "alloc_scale20k", func(p *pass) error { return runScale(p, toyScale, 0.2, dir) },
		"allocation.gifs", "allocation.shards_pruned", "allocation.spilled_runs", "bitvector.upper_bound_ns",
		"extsort.sort_ns_per_rec", "extsort.runs")
}
