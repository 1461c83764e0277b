package allocation

import (
	"cmp"
	"fmt"
	"math/rand"
	"strings"
)

// compareUnits is the BIN PACKING pool order — bandwidth descending, ties
// by ID ascending — a strict total order over a validated input's units (no
// NaN load, no repeated ID). The full sort (sortUnitsByBandwidthDesc) and the
// splice of CRAM's pool (pool.commit, through unitBefore) share it: both must
// agree exactly for a spliced pool to be byte-identical to a sorted one.
func compareUnits(a, b *Unit) int {
	if c := cmp.Compare(b.Load.Bandwidth, a.Load.Bandwidth); c != 0 {
		return c
	}
	return strings.Compare(a.ID, b.ID)
}

// unitBefore reports whether a comes before b in the pool order.
func unitBefore(a, b *Unit) bool { return compareUnits(a, b) < 0 }

// FBF is the Fastest Broker First algorithm (Section IV-A): brokers are
// sorted in descending order of total available output bandwidth, and
// subscriptions are drawn from the pool in random order, each assigned to
// the most resourceful broker that can admit it. Complexity O(S).
type FBF struct {
	// Seed drives the random draw order, making runs reproducible.
	Seed int64
}

var _ Algorithm = (*FBF)(nil)

// Allocate implements Algorithm.
func (f *FBF) Allocate(in *Input) (*Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	units := make([]*Unit, len(in.Units))
	copy(units, in.Units)
	rng := rand.New(rand.NewSource(f.Seed))
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	brokers := sortBrokersByCapacity(in.Brokers)
	table := newPublisherTable(in.Publishers, units)
	a, err := packFirstFit([]block{{units, compileUnits(units, table)}}, brokers, table)
	if err != nil {
		return nil, fmt.Errorf("FBF: %w", err)
	}
	return a, nil
}

// BinPacking is the BIN PACKING algorithm (Section IV-B): identical to FBF
// except subscriptions are drawn in descending order of bandwidth
// requirement (first-fit decreasing). Complexity O(S log S). The paper
// observes it consistently allocates one less broker than FBF, in line
// with bin-packing theory.
type BinPacking struct{}

var _ Algorithm = (*BinPacking)(nil)

// Allocate implements Algorithm.
func (*BinPacking) Allocate(in *Input) (*Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	units := sortUnitsByBandwidthDesc(in.Units)
	brokers := sortBrokersByCapacity(in.Brokers)
	table := newPublisherTable(in.Publishers, units)
	a, err := packFirstFit([]block{{units, compileUnits(units, table)}}, brokers, table)
	if err != nil {
		return nil, fmt.Errorf("BINPACKING: %w", err)
	}
	return a, nil
}
