package allocation

import (
	"fmt"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
)

// checkPoolInvariants asserts what pool.commit must preserve: units strictly
// in BIN PACKING order, stream[i] the compiled form of units[i], and classes
// partitioning the stream exactly as a fresh classTable partitions it — equal
// compiled content, equal class, the canonical entries shared. It ends by
// replaying the pool onto its scratch pack: the admission columns must mirror
// the broker states where the run's last probe left them, after the clear and
// after every placement, and place must land each unit where the linear scan
// over fits lands it on a pack of its own.
func checkPoolInvariants(t *testing.T, p *pool) {
	t.Helper()
	if len(p.stream) != len(p.units) {
		t.Fatalf("%d compiled units for %d units", len(p.stream), len(p.units))
	}
	fresh := compileUnits(p.units, p.table, new(classTable))
	toFresh := make(map[int32]int32)
	fromFresh := make(map[int32]int32)
	canonical := make(map[int32]*bitvector.PubVector)
	for i, u := range p.units {
		if i > 0 && !unitBefore(p.units[i-1], u) {
			t.Fatalf("units %d (%s) and %d (%s) are out of BIN PACKING order", i-1, p.units[i-1].ID, i, u.ID)
		}
		got, want := &p.stream[i], compileUnit(u, p.table)
		if !sameLoad(got.load, want.load) || !sameLoad(got.in, want.in) || got.filters != want.filters ||
			!bitvector.CompiledEqual(got.entries, want.entries) {
			t.Fatalf("stream[%d] is not unit %s compiled", i, u.ID)
		}
		if got.class == 0 {
			t.Fatalf("stream[%d] (unit %s) was never interned", i, u.ID)
		}
		f := fresh[i].class
		if c, ok := toFresh[got.class]; ok && c != f {
			t.Fatalf("class %d holds two contents (unit %s)", got.class, u.ID)
		}
		if c, ok := fromFresh[f]; ok && c != got.class {
			t.Fatalf("one content in classes %d and %d (unit %s)", c, got.class, u.ID)
		}
		toFresh[got.class], fromFresh[f] = f, got.class
		if len(got.entries) > 0 {
			if first, ok := canonical[got.class]; ok && first != &got.entries[0] {
				t.Fatalf("stream[%d] (unit %s) does not share its class's entries", i, u.ID)
			}
			canonical[got.class] = &got.entries[0]
		}
	}

	checkColumns(t, p.pk, "as the last probe left the scratch pack")
	p.pk.clear()
	checkColumns(t, p.pk, "after clear")
	brokers := make([]*BrokerSpec, len(p.pk.states))
	for b := range brokers {
		brokers[b] = p.pk.states[b].spec
	}
	linear := newPack(brokers, p.table, p.pk.capacity)
	for i := range p.stream {
		got, want := p.pk.place(&p.stream[i]), placeLinear(linear, &p.stream[i])
		if got != want {
			t.Fatalf("stream[%d] (unit %s): place chose broker %d, the linear scan over fits %d", i, p.units[i].ID, got, want)
		}
		checkColumns(t, p.pk, fmt.Sprintf("stream[%d] placed on %d", i, got))
	}
}

// TestPoolInvariantsAfterEveryCommit walks a full CRAM run one clustering
// loop iteration at a time — a run capped at k iterations ends in the state
// the full run is in after k, commits included — and checks the pool after
// each, for the poset and the exhaustive search, grouping on and off.
func TestPoolInvariantsAfterEveryCommit(t *testing.T) {
	units, pubs := testWorkload(42, 5, 8, 10, 100)
	in := &Input{Units: units, Brokers: testBrokers(8, 10_000, stdDelay()), Publishers: pubs, ProfileCapacity: testCap}
	cases := []struct {
		name                   string
		exhaustive, noGrouping bool
	}{
		{"poset", false, false},
		{"exhaustive", true, false},
		{"poset-ungrouped", false, true},
		{"exhaustive-ungrouped", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(maxIter int) *CRAM {
				return &CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: tc.exhaustive,
					DisableGIFGrouping: tc.noGrouping, MaxIterations: maxIter}
			}
			full := mk(0)
			if _, _, err := full.run(in); err != nil {
				t.Fatal(err)
			}
			if full.Stats().ClustersAccepted == 0 {
				t.Fatal("the run commits nothing; the workload is too easy for the test")
			}
			for k := 1; ; k++ {
				c := mk(k)
				r, _, err := c.run(in)
				if err != nil {
					t.Fatalf("%d iterations: %v", k, err)
				}
				checkPoolInvariants(t, r.pool)
				if c.Stats() == full.Stats() {
					break
				}
				if k > 64*(len(units)+1) {
					t.Fatal("capped runs never reach the full run's statistics")
				}
			}
		})
	}
}

// TestUnitsReusedAcrossPublisherTables allocates one []*Unit twice, under two
// different Input.Publishers: the second run must return what fresh copies of
// the units return, whatever the first compiled them against — compiled
// forms belong to a run, not to the Unit.
func TestUnitsReusedAcrossPublisherTables(t *testing.T) {
	in := stdInput(t)
	second := make(map[string]*bitvector.PublisherStats)
	for adv, st := range in.Publishers {
		cp := *st
		cp.Rate, cp.Bandwidth = st.Rate/2, st.Bandwidth/2
		second[adv] = &cp
	}
	second["P-extra"] = &bitvector.PublisherStats{AdvID: "P-extra", Rate: 1, Bandwidth: 100}
	algs := []func() Algorithm{
		func() Algorithm { return &FBF{Seed: 3} },
		func() Algorithm { return &BinPacking{} },
		func() Algorithm { return &CRAM{Metric: bitvector.MetricIOS} },
	}
	for _, mk := range algs {
		freshUnits := make([]*Unit, len(in.Units))
		for i, u := range in.Units {
			cp := *u
			cp.Profile = u.Profile.Clone()
			freshUnits[i] = &cp
		}
		freshIn := *in
		freshIn.Units, freshIn.Publishers = freshUnits, second
		want, err := mk().Allocate(&freshIn)
		if err != nil {
			t.Fatal(err)
		}

		first, err := mk().Allocate(in)
		if err != nil {
			t.Fatal(err)
		}
		reusedIn := *in
		reusedIn.Publishers = second
		got, err := mk().Allocate(&reusedIn)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: units already allocated under another publisher table plan differently from fresh copies", mk().Name())
		}
		if got.Fingerprint() == first.Fingerprint() {
			t.Errorf("%s: the two publisher tables give one plan; the example does not separate them", mk().Name())
		}
	}
}

// TestCRAMPosetRefusalIsAnError makes the poset refuse what the clustering
// loop asks of it — an insert under an ID already present, a remove of a node
// already gone, neither of which a run of its own leads to — and checks that
// the run stops with an error naming the step, not a panic, so a caller
// (croc, Reconfigure) survives it.
func TestCRAMPosetRefusalIsAnError(t *testing.T) {
	start := func(t *testing.T) *cramRun {
		r, err := (&CRAM{Metric: bitvector.MetricIOS}).start(stdInput(t))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	t.Run("insert", func(t *testing.T) {
		r := start(t)
		// Take the ID the run's next new GIF will be given, under a profile
		// no search can prefer: a publisher the workload does not have.
		foreign := bitvector.NewProfile(testCap)
		foreign.Record("elsewhere", 0)
		taken := fmt.Sprintf("g%d", r.nextGIF+1)
		if _, err := r.ps.Insert(taken, foreign, nil); err != nil {
			t.Fatal(err)
		}
		_, err := r.cluster()
		if err == nil || !strings.Contains(err.Error(), "CRAM: poset insert for new GIF "+taken) {
			t.Fatalf("cluster() = %v, want a poset insert error for %s", err, taken)
		}
	})
	t.Run("remove", func(t *testing.T) {
		r := start(t)
		for _, id := range r.sortedGIFIDs() {
			if err := r.ps.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		_, err := r.cluster()
		if err == nil || !strings.Contains(err.Error(), "CRAM: poset remove of GIF ") {
			t.Fatalf("cluster() = %v, want a poset remove error", err)
		}
	})
}
