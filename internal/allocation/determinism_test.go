package allocation

import (
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
)

func TestCRAMXorDeterministicAcrossRuns(t *testing.T) {
	in := stdInput(t)
	var counts []int
	for i := 0; i < 3; i++ {
		cram := &CRAM{Metric: bitvector.MetricXor}
		a, err := cram.Allocate(in)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, a.NumAllocated())
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("CRAM-XOR broker counts vary across identical runs: %v", counts)
	}
}

// TestCRAMBoundPruningEquivalence is the contract behind the summary
// bounds of the exhaustive scan: pruned runs must produce byte-identical
// plans — and identical stats apart from BoundPruned itself — to runs with
// every closeness evaluation exact, across metrics. Somewhere in the sweep
// the bounds must actually fire, or the knob is testing nothing.
func TestCRAMBoundPruningEquivalence(t *testing.T) {
	in := stdInput(t)
	totalPruned := 0
	for _, metric := range []bitvector.Metric{
		bitvector.MetricIntersect, bitvector.MetricXor,
		bitvector.MetricIOS, bitvector.MetricIOU,
	} {
		name := metric.String()
		pruned := &CRAM{Metric: metric, ExhaustiveSearch: true}
		ap, err := pruned.Allocate(in)
		if err != nil {
			t.Fatalf("%s pruned: %v", name, err)
		}
		exact := &CRAM{Metric: metric, ExhaustiveSearch: true, DisableBoundPruning: true}
		ae, err := exact.Allocate(in)
		if err != nil {
			t.Fatalf("%s exact: %v", name, err)
		}
		if ap.Fingerprint() != ae.Fingerprint() {
			t.Errorf("%s: pruned plan differs from pruning-disabled plan", name)
		}
		ps, es := pruned.Stats(), exact.Stats()
		if es.BoundPruned != 0 {
			t.Errorf("%s: BoundPruned=%d with pruning disabled", name, es.BoundPruned)
		}
		totalPruned += ps.BoundPruned
		ps.BoundPruned = 0
		if ps != es {
			t.Errorf("%s: stats differ beyond BoundPruned:\n pruned %+v\n  exact %+v", name, ps, es)
		}
	}
	if totalPruned == 0 {
		t.Error("bound pruning never fired for any metric")
	}
}

// TestOneToManyOptimizationFires: optimization 3 must engage on a workload
// with intersecting partial-overlap groups, and its switch must disable it.
func TestOneToManyOptimizationFires(t *testing.T) {
	in := stdInput(t)
	on := &CRAM{Metric: bitvector.MetricIOS}
	if _, err := on.Allocate(in); err != nil {
		t.Fatal(err)
	}
	if on.Stats().OneToManyApplied == 0 {
		t.Error("one-to-many clustering never fired on an overlapping workload")
	}
	off := &CRAM{Metric: bitvector.MetricIOS, DisableOneToMany: true}
	if _, err := off.Allocate(in); err != nil {
		t.Fatal(err)
	}
	if off.Stats().OneToManyApplied != 0 {
		t.Error("DisableOneToMany did not disable optimization 3")
	}
}
