package croc_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/croc"
	"github.com/greenps/greenps/internal/telemetry"
)

// stepClock returns a deterministic clock that advances 1ms per call,
// so two planning runs sample identical timestamps.
func stepClock() func() time.Time {
	at := time.Unix(1700000000, 0)
	return func() time.Time {
		at = at.Add(time.Millisecond)
		return at
	}
}

// TestPlanEquivalence is the telemetry boundary's end-to-end check: the
// plan computed through croc.Plan with an active timeline must be
// byte-identical to the one computed by core.ComputePlan directly.
// Both runs use the same deterministic step clock, so even the timing
// fields must agree — telemetry observes planning but contributes
// nothing to it.
func TestPlanEquivalence(t *testing.T) {
	addr := liveOverlay(t, 0)
	infos, err := croc.Gather(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{core.AlgCRAMIOS, core.AlgCRAMXor, core.AlgFBF} {
		bare, err := core.ComputePlan(infos, core.Config{Algorithm: alg, Seed: 42, Clock: stepClock()})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		tl := telemetry.NewTimeline("reconfiguration", stepClock())
		timed, err := croc.Plan(infos, core.Config{Algorithm: alg, Seed: 42, Clock: stepClock()}, tl)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		var a, b bytes.Buffer
		if err := croc.WriteJSON(&a, bare); err != nil {
			t.Fatal(err)
		}
		if err := croc.WriteJSON(&b, timed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: plan with timeline differs from bare plan:\n--- bare ---\n%s\n--- timed ---\n%s",
				alg, a.String(), b.String())
		}
		if len(tl.Spans()) != 4 {
			t.Errorf("%s: timeline recorded %d spans, want 4 planning stages", alg, len(tl.Spans()))
		}
	}
}

// TestPlanEquivalenceAcrossWorkers extends the byte-identity check to
// CRAM's seed-phase fan-out: the serialized plan of an exhaustive CRAM run
// must not change with the worker count. Shard counts and spill budgets are
// CRAM-level settings; allocation's TestCRAMShardSpillEquivalence covers them.
func TestPlanEquivalenceAcrossWorkers(t *testing.T) {
	addr := liveOverlay(t, 0)
	infos, err := croc.Gather(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	base := core.Config{
		Algorithm: core.AlgCRAMIOS, ExhaustiveSearch: true, Parallelism: 1,
		Seed: 42, Clock: stepClock(),
	}
	ref, err := core.ComputePlan(infos, base)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := croc.WriteJSON(&want, ref); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		cfg := base
		cfg.Parallelism = workers
		cfg.Clock = stepClock()
		plan, err := core.ComputePlan(infos, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var got bytes.Buffer
		if err := croc.WriteJSON(&got, plan); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("workers=%d: plan differs from the serial plan:\n--- want ---\n%s\n--- got ---\n%s",
				workers, want.String(), got.String())
		}
	}
}

// TestReconfigureTimedTimeline runs the full live round trip with a
// timeline and checks the rendered reconfiguration history names every
// phase.
func TestReconfigureTimedTimeline(t *testing.T) {
	addr := liveOverlay(t, 0)
	tl := telemetry.NewTimeline("reconfiguration", time.Now)
	if _, err := croc.Reconfigure(addr, core.Config{Algorithm: core.AlgCRAMIOS}, 10*time.Second, tl); err != nil {
		t.Fatal(err)
	}
	spans := tl.Spans()
	if len(spans) != 5 { // gather + 4 planning stages
		t.Fatalf("timeline has %d spans, want 5: %+v", len(spans), spans)
	}
	if spans[0].Name != "phase 1: gather broker info (BIR/BIA)" || spans[0].Duration <= 0 {
		t.Fatalf("first span = %+v, want a positive-duration gather", spans[0])
	}
	var sb strings.Builder
	if err := tl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"reconfiguration:", "phase 1", "phase 2: allocate (CRAM-IOS)", "phase 3: GRAPE",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("timeline render missing %q:\n%s", want, sb.String())
		}
	}
}
