package grape

import (
	"fmt"
	"testing"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/overlaybuild"
)

const testCap = 128

// chainTree builds a 3-broker chain ROOT - MID - LEAF with subscriptions
// for publisher A hosted only at LEAF and subscriptions for publisher B
// hosted only at ROOT.
func chainTree(t *testing.T) (*overlaybuild.Tree, map[string]*bitvector.PublisherStats) {
	t.Helper()
	mkProfile := func(advID string) *bitvector.Profile {
		p := bitvector.NewProfile(testCap)
		for i := 0; i < 100; i++ {
			p.Record(advID, i)
		}
		return p
	}
	mkUnit := func(id, advID string) *allocation.Unit {
		prof := mkProfile(advID)
		return &allocation.Unit{
			ID:      id,
			Members: []allocation.Member{{SubID: id}},
			Profile: prof,
			Load:    bitvector.Load{Rate: 10, Bandwidth: 1000},
		}
	}
	spec := func(id string) *allocation.BrokerSpec {
		return &allocation.BrokerSpec{ID: id, OutputBandwidth: 1e6}
	}
	tree := &overlaybuild.Tree{
		Root:     "ROOT",
		Children: map[string][]string{"ROOT": {"MID"}, "MID": {"LEAF"}},
		Hosted: map[string][]*allocation.Unit{
			"LEAF": {mkUnit("sA", "A")},
			"ROOT": {mkUnit("sB", "B")},
		},
		Specs: map[string]*allocation.BrokerSpec{
			"ROOT": spec("ROOT"), "MID": spec("MID"), "LEAF": spec("LEAF"),
		},
	}
	pubs := map[string]*bitvector.PublisherStats{
		"A": {AdvID: "A", Rate: 10, Bandwidth: 1000, LastSeq: 99},
		"B": {AdvID: "B", Rate: 10, Bandwidth: 1000, LastSeq: 99},
	}
	return tree, pubs
}

func TestRelocateLoadModePlacesAtSubscribers(t *testing.T) {
	tree, pubs := chainTree(t)
	placement, err := Relocate(tree, pubs, ModeLoad)
	if err != nil {
		t.Fatal(err)
	}
	if placement["A"] != "LEAF" {
		t.Errorf("publisher A placed at %s, want LEAF (its only subscribers)", placement["A"])
	}
	if placement["B"] != "ROOT" {
		t.Errorf("publisher B placed at %s, want ROOT", placement["B"])
	}
}

func TestRelocateDelayMode(t *testing.T) {
	tree, pubs := chainTree(t)
	placement, err := Relocate(tree, pubs, ModeDelay)
	if err != nil {
		t.Fatal(err)
	}
	if placement["A"] != "LEAF" || placement["B"] != "ROOT" {
		t.Errorf("delay placement = %v, want A->LEAF, B->ROOT", placement)
	}
}

// TestRelocateBalancedPublisher: a publisher with equal interest at both
// chain ends. The summed hop distance is identical anywhere on the path
// between the two delivery points (2 rate-weighted hops), so every
// candidate ties and the tie-break must choose the root.
func TestRelocateBalancedPublisher(t *testing.T) {
	tree, pubs := chainTree(t)
	// Give both LEAF and ROOT subscriptions to publisher C.
	mk := func(id string) *allocation.Unit {
		p := bitvector.NewProfile(testCap)
		for i := 0; i < 100; i++ {
			p.Record("C", i)
		}
		return &allocation.Unit{
			ID:      id,
			Members: []allocation.Member{{SubID: id}},
			Profile: p,
			Load:    bitvector.Load{Rate: 5, Bandwidth: 500},
		}
	}
	tree.Hosted["LEAF"] = append(tree.Hosted["LEAF"], mk("sC1"))
	tree.Hosted["ROOT"] = append(tree.Hosted["ROOT"], mk("sC2"))
	pubs["C"] = &bitvector.PublisherStats{AdvID: "C", Rate: 10, Bandwidth: 1000, LastSeq: 99}
	placement, err := Relocate(tree, pubs, ModeDelay)
	if err != nil {
		t.Fatal(err)
	}
	if placement["C"] != "ROOT" {
		t.Errorf("balanced publisher tie broke to %s, want ROOT", placement["C"])
	}
	// Load mode: every candidate crosses the same 2 edges (subscribers at
	// both ends), so the tie goes to the root.
	placement, err = Relocate(tree, pubs, ModeLoad)
	if err != nil {
		t.Fatal(err)
	}
	if placement["C"] != "ROOT" {
		t.Errorf("load-mode tie broke to %s, want ROOT", placement["C"])
	}
}

func TestRelocateUninterestedPublisherTieBreaksToRoot(t *testing.T) {
	tree, pubs := chainTree(t)
	pubs["Z"] = &bitvector.PublisherStats{AdvID: "Z", Rate: 1, Bandwidth: 100, LastSeq: 9}
	placement, err := Relocate(tree, pubs, ModeLoad)
	if err != nil {
		t.Fatal(err)
	}
	if placement["Z"] != "ROOT" {
		t.Errorf("no-subscriber publisher placed at %s, want ROOT", placement["Z"])
	}
}

func TestRelocateErrors(t *testing.T) {
	tree, pubs := chainTree(t)
	if _, err := Relocate(tree, pubs, Mode(0)); err == nil {
		t.Error("invalid mode accepted")
	}
	empty := &overlaybuild.Tree{Specs: map[string]*allocation.BrokerSpec{}}
	if _, err := Relocate(empty, pubs, ModeLoad); err == nil {
		t.Error("empty tree accepted")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"load", ModeLoad}, {"DELAY", ModeDelay}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseMode("speed"); err == nil {
		t.Error("unknown mode accepted")
	}
	if ModeLoad.String() != "load" || ModeDelay.String() != "delay" {
		t.Error("mode names wrong")
	}
}

// TestRelocateStarTopology checks exact load scoring on a star: publisher
// with subscribers at two of four leaves must attach at one of those
// leaves or the hub — never at an uninterested leaf.
func TestRelocateStarTopology(t *testing.T) {
	mkProf := func(advID string, frac int) *bitvector.Profile {
		p := bitvector.NewProfile(testCap)
		for i := 0; i < frac; i++ {
			p.Record(advID, i)
		}
		if v := p.Vector(advID); v != nil {
			v.Observe(99)
		}
		return p
	}
	spec := func(id string) *allocation.BrokerSpec {
		return &allocation.BrokerSpec{ID: id, OutputBandwidth: 1e6}
	}
	tree := &overlaybuild.Tree{
		Root:     "HUB",
		Children: map[string][]string{"HUB": {"L1", "L2", "L3", "L4"}},
		Hosted:   map[string][]*allocation.Unit{},
		Specs: map[string]*allocation.BrokerSpec{
			"HUB": spec("HUB"), "L1": spec("L1"), "L2": spec("L2"), "L3": spec("L3"), "L4": spec("L4"),
		},
	}
	// L1 sinks 90% of P's stream, L2 sinks 10%.
	for leaf, frac := range map[string]int{"L1": 90, "L2": 10} {
		prof := mkProf("P", frac)
		tree.Hosted[leaf] = []*allocation.Unit{{
			ID:      "u" + leaf,
			Members: []allocation.Member{{SubID: "s" + leaf}},
			Profile: prof,
			Load:    bitvector.Load{Rate: 1, Bandwidth: 100},
		}}
	}
	pubs := map[string]*bitvector.PublisherStats{
		"P": {AdvID: "P", Rate: 10, Bandwidth: 1000, LastSeq: 99},
	}
	placement, err := Relocate(tree, pubs, ModeLoad)
	if err != nil {
		t.Fatal(err)
	}
	// Attaching at L1: edges crossed = HUB->L2 always (0.1) plus L1->HUB
	// for pubs matching anything beyond (0.1 if disjoint... here L2's bits
	// are a subset of L1's 90). Candidates L3/L4 add a wasted hop; the
	// winner must be L1 (bulk of traffic terminates locally).
	if placement["P"] != "L1" {
		t.Errorf("P placed at %s, want L1", placement["P"])
	}
	_ = fmt.Sprint()
}

func TestRelocateWithPriorityBounds(t *testing.T) {
	tree, pubs := chainTree(t)
	if _, err := RelocateWithPriority(tree, pubs, -1); err == nil {
		t.Error("priority -1 accepted")
	}
	if _, err := RelocateWithPriority(tree, pubs, 101); err == nil {
		t.Error("priority 101 accepted")
	}
	for _, p := range []int{0, 25, 50, 75, 100} {
		placement, err := RelocateWithPriority(tree, pubs, p)
		if err != nil {
			t.Fatalf("priority %d: %v", p, err)
		}
		if len(placement) != len(pubs) {
			t.Fatalf("priority %d: placed %d of %d", p, len(placement), len(pubs))
		}
	}
}

func TestRelocatePriorityExtremesMatchModes(t *testing.T) {
	tree, pubs := chainTree(t)
	load, err := Relocate(tree, pubs, ModeLoad)
	if err != nil {
		t.Fatal(err)
	}
	p100, err := RelocateWithPriority(tree, pubs, 100)
	if err != nil {
		t.Fatal(err)
	}
	for adv := range pubs {
		if load[adv] != p100[adv] {
			t.Errorf("publisher %s: ModeLoad=%s priority100=%s", adv, load[adv], p100[adv])
		}
	}
	delay, err := Relocate(tree, pubs, ModeDelay)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := RelocateWithPriority(tree, pubs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for adv := range pubs {
		if delay[adv] != p0[adv] {
			t.Errorf("publisher %s: ModeDelay=%s priority0=%s", adv, delay[adv], p0[adv])
		}
	}
}
