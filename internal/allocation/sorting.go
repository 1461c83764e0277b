package allocation

import (
	"fmt"
	"math/rand"
)

// unitBefore is the BIN PACKING pool order — bandwidth descending, ties
// by ID ascending. The full sort (sortUnitsByBandwidthDesc) and the splice
// of CRAM's pool (pool.commit) share it: both must agree exactly for a
// spliced pool to be byte-identical to a sorted one.
func unitBefore(a, b *Unit) bool {
	if a.Load.Bandwidth != b.Load.Bandwidth {
		return a.Load.Bandwidth > b.Load.Bandwidth
	}
	return a.ID < b.ID
}

// FBF is the Fastest Broker First algorithm (Section IV-A): brokers are
// sorted in descending order of total available output bandwidth, and
// subscriptions are drawn from the pool in random order, each assigned to
// the most resourceful broker that can admit it. Complexity O(S).
type FBF struct {
	// Seed drives the random draw order, making runs reproducible.
	Seed int64
	// Rand, when non-nil, supplies the draw order instead of a generator
	// seeded from Seed. It must be explicitly seeded; the allocation
	// package never falls back to the process-global math/rand state
	// (greenvet's nondet analyzer rejects it).
	Rand *rand.Rand
}

var _ Algorithm = (*FBF)(nil)

// Name implements Algorithm.
func (*FBF) Name() string { return "FBF" }

// Allocate implements Algorithm.
func (f *FBF) Allocate(in *Input) (*Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	units := make([]*Unit, len(in.Units))
	copy(units, in.Units)
	rng := f.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(f.Seed))
	}
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	brokers := sortBrokersByCapacity(in.Brokers)
	table := newPublisherTable(in.Publishers, units)
	compiled := compileUnits(units, table, new(classTable))
	a, err := packFirstFit(units, compiled, brokers, table, in.ProfileCapacity)
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

// Name implements Algorithm.
func (*BinPacking) Name() string { return "BINPACKING" }

// Allocate implements Algorithm.
func (*BinPacking) Allocate(in *Input) (*Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	units := sortUnitsByBandwidthDesc(in.Units)
	brokers := sortBrokersByCapacity(in.Brokers)
	table := newPublisherTable(in.Publishers, units)
	compiled := compileUnits(units, table, new(classTable))
	a, err := packFirstFit(units, compiled, brokers, table, in.ProfileCapacity)
	if err != nil {
		return nil, fmt.Errorf("BINPACKING: %w", err)
	}
	return a, nil
}
