// Package allocation implements Phase 2 of the paper: assigning the
// subscription pool onto a minimal set of brokers under per-broker capacity
// constraints. It provides the two sorting algorithms (FBF and BIN PACKING,
// Section IV-A/B), the CRAM clustering algorithm with all four closeness
// metrics and its three optimizations (Section IV-C), and the PAIRWISE-K/N
// related-work derivatives used as comparison points (Section VI).
//
// Allocation operates on *units*: clusters of one or more subscriptions
// that must land on the same broker. Initially every subscription is its
// own unit; CRAM merges units. Phase 3 reuses the same machinery with
// pseudo-units that stand for already-allocated child brokers.
package allocation

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/message"
)

// BrokerSpec describes one broker's identity and capacity, as reported in
// its BIA message.
type BrokerSpec struct {
	// ID is the broker identifier.
	ID string
	// URL is the broker's connect address.
	URL string
	// Delay is the broker's linear matching-delay model.
	Delay message.MatchingDelayFn
	// OutputBandwidth is the broker's total output bandwidth in bytes/s.
	OutputBandwidth float64
}

// Member is one constituent of a unit: either a real subscription or, in
// Phase 3, a child broker represented as a pseudo-subscription. Each
// member is one routing-table entry for the matching-delay model: a child
// broker's aggregate filter is stored once.
type Member struct {
	// SubID is the subscription ID (empty for pseudo-members).
	SubID string
	// ChildBroker is the represented child broker ID (empty for real
	// subscriptions).
	ChildBroker string
}

// Unit is an allocatable cluster of members that share a broker. Its
// profile is the OR of its members' profiles; its load is the sum of its
// members' loads (each member still receives its own copy of every
// matching publication).
type Unit struct {
	// ID uniquely names the unit within one allocation run.
	ID string
	// Members lists the subscriptions (or child brokers) in the cluster. A
	// unit MergeUnits made holds nil here until an Assignment hosts it.
	Members []Member
	// Profile is the OR of the members' bit-vector profiles.
	Profile *bitvector.Profile
	// Load is the sum of the members' delivery loads: the publication
	// rate and bandwidth its broker must send them.
	Load bitvector.Load

	// parts are the units MergeUnits merged into this one, in merge order,
	// and size is their member count, until fill spells the members out.
	parts []*Unit
	size  int
}

// NewSubscriptionUnit wraps subscription subID into a unit.
func NewSubscriptionUnit(id, subID string, profile *bitvector.Profile, load bitvector.Load) *Unit {
	return &Unit{
		ID:      id,
		Members: []Member{{SubID: subID}},
		Profile: profile,
		Load:    load,
	}
}

// MergeUnits combines units into one cluster: members concatenate, profiles
// OR together at the first unit's capacity (bound to the parts' publisher
// table when every part's is bound to it, see Profile.Or), loads add. The
// merged unit keeps its parts rather than a copy of their members — a unit
// grown by repeated merges would copy all of them again at every merge — and
// its Members stay nil until an Assignment hosts it: the allocation that
// places it fills them once, in merge order. Filling writes the unit, so a
// merged unit is placed by one allocation at a time.
func MergeUnits(id string, units ...*Unit) *Unit {
	capacity := 0
	if len(units) > 0 {
		capacity = units[0].Profile.Capacity()
	}
	out := &Unit{ID: id, Profile: bitvector.NewProfile(capacity)}
	for _, u := range units {
		out.add(u, u.Profile)
	}
	return out
}

// add merges part into u, a merged unit, as its next part: prof, part's
// profile or its bound copy, is ORed into u's.
func (u *Unit) add(part *Unit, prof *bitvector.Profile) {
	u.parts = append(u.parts, part)
	u.size += part.filters()
	u.Profile.Or(prof)
	u.Load = u.Load.Add(part.Load)
}

// filters returns the unit's member count: its routing-table entries.
func (u *Unit) filters() int {
	if u.parts != nil {
		return u.size
	}
	return len(u.Members)
}

// fill spells out the members of a unit MergeUnits made, depth first
// through its parts in merge order — the concatenation a merge that copied
// would have built — and drops the parts. Any other unit it leaves as it is.
func (u *Unit) fill() {
	if u.parts == nil {
		return
	}
	members := make([]Member, 0, u.size)
	stack := []*Unit{u}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v.parts == nil {
			members = append(members, v.Members...)
			continue
		}
		for i := len(v.parts) - 1; i >= 0; i-- {
			stack = append(stack, v.parts[i])
		}
	}
	u.Members, u.parts = members, nil
}

// Input is everything an allocation algorithm needs: the unit pool, the
// broker pool, and the publisher statistics for load estimation.
type Input struct {
	Units      []*Unit
	Brokers    []*BrokerSpec
	Publishers map[string]*bitvector.PublisherStats
}

// Validate checks structural soundness of the input, and is the one
// statement of what the first-fit kernel assumes (DESIGN.md §7.1): every
// publisher rate and bandwidth, unit load and matching-delay term finite and
// non-negative, every unit at least one member, one vector capacity.
func (in *Input) Validate() error {
	if len(in.Brokers) == 0 {
		return fmt.Errorf("allocation: no brokers in pool")
	}
	seenB := make(map[string]bool, len(in.Brokers))
	for _, b := range in.Brokers {
		if b.ID == "" {
			return fmt.Errorf("allocation: broker with empty ID")
		}
		if seenB[b.ID] {
			return fmt.Errorf("allocation: duplicate broker %q", b.ID)
		}
		seenB[b.ID] = true
		// No bandwidth test refuses a unit against a NaN capacity, and the
		// capacity certificate takes capacities finite.
		if !(b.OutputBandwidth > 0 && b.OutputBandwidth <= math.MaxFloat64) {
			return fmt.Errorf("allocation: broker %q has bandwidth %v, want a finite positive number", b.ID, b.OutputBandwidth)
		}
		// A delay that falls as filters are added voids the saturation
		// mark, and a NaN one is a NaN rate limit, which refuses every unit.
		if !finiteNonNegative(b.Delay.PerSub) || !finiteNonNegative(b.Delay.Base) {
			return fmt.Errorf("allocation: broker %q has matching delay %+v, want finite non-negative terms", b.ID, b.Delay)
		}
	}
	// A negative or non-finite rate breaks the monotone sums the saturation
	// mark and the capacity certificate rest on. The first bad publisher in
	// ID order is reported, whatever the map order; the test is written out
	// because detflow admits no call in a map range.
	var bad []string
	for id, st := range in.Publishers {
		if st != nil && !(st.Rate >= 0 && st.Rate <= math.MaxFloat64 && st.Bandwidth >= 0 && st.Bandwidth <= math.MaxFloat64) {
			bad = append(bad, id)
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		st := in.Publishers[bad[0]]
		return fmt.Errorf("allocation: publisher %q has rate %v and bandwidth %v, want finite non-negative numbers", bad[0], st.Rate, st.Bandwidth)
	}
	seenU := make(map[string]bool, len(in.Units))
	for _, u := range in.Units {
		if u.ID == "" {
			return fmt.Errorf("allocation: unit with empty ID")
		}
		if seenU[u.ID] {
			return fmt.Errorf("allocation: duplicate unit %q", u.ID)
		}
		seenU[u.ID] = true
		if u.Profile == nil {
			return fmt.Errorf("allocation: unit %q has nil profile", u.ID)
		}
		if u.filters() == 0 {
			return fmt.Errorf("allocation: unit %q has no members", u.ID)
		}
		// Every kernel ANDs and ORs word by word: a vector of another
		// capacity would be read past its end or only in part. A profile's
		// vectors have its capacity, so the run has one capacity when every
		// profile has the first's.
		if first := in.Units[0]; u.Profile.Capacity() != first.Profile.Capacity() {
			return fmt.Errorf("allocation: unit %q has vector capacity %d, unit %q has %d",
				u.ID, u.Profile.Capacity(), first.ID, first.Profile.Capacity())
		}
		// A NaN load orders against nothing: it would void the pool order
		// and every capacity test of the broker that took the unit. A
		// negative or infinite one voids the capacity certificate.
		if !finiteNonNegative(u.Load.Rate) || !finiteNonNegative(u.Load.Bandwidth) {
			return fmt.Errorf("allocation: unit %q has load %+v, want finite non-negative rate and bandwidth", u.ID, u.Load)
		}
	}
	return nil
}

// finiteNonNegative reports whether x is a finite number of at least zero.
func finiteNonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// BrokerLoad summarizes one allocated broker's predicted load.
type BrokerLoad struct {
	// Input is the publication traffic entering the broker (the OR of its
	// hosted profiles).
	Input bitvector.Load
	// Output is the delivery traffic leaving the broker (the sum of its
	// hosted units' loads).
	Output bitvector.Load
	// Filters is the routing-table entry count.
	Filters int
}

// Assignment is the outcome of Phase 2: a set of non-connected brokers,
// some with units allocated to them (Section IV).
type Assignment struct {
	// ByBroker maps broker ID to its allocated units. Brokers with no
	// units do not appear.
	ByBroker map[string][]*Unit
	// Loads maps broker ID to its predicted load.
	Loads map[string]BrokerLoad
	// Specs indexes the broker pool by ID (all brokers, allocated or not).
	Specs map[string]*BrokerSpec
}

// AllocatedBrokers returns the IDs of brokers that received at least one
// unit, sorted.
func (a *Assignment) AllocatedBrokers() []string {
	out := make([]string, 0, len(a.ByBroker))
	for id := range a.ByBroker {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// NumAllocated returns the number of allocated brokers.
func (a *Assignment) NumAllocated() int { return len(a.ByBroker) }

// UnitCount returns the total number of units placed.
func (a *Assignment) UnitCount() int {
	n := 0
	for _, us := range a.ByBroker {
		n += len(us)
	}
	return n
}

// Fingerprint returns a canonical textual digest of the assignment:
// brokers in sorted ID order, each with its units in placement order, each
// unit with its members and load. Two assignments produce the same
// fingerprint iff they place the same unit contents on the same brokers
// with the same predicted loads — the equality the determinism tests
// assert across runs and parallelism levels.
func (a *Assignment) Fingerprint() string {
	var sb strings.Builder
	for _, b := range a.AllocatedBrokers() {
		l := a.Loads[b]
		fmt.Fprintf(&sb, "%s[in=%.6f,%.6f out=%.6f,%.6f f=%d]", b,
			l.Input.Rate, l.Input.Bandwidth, l.Output.Rate, l.Output.Bandwidth, l.Filters)
		for _, u := range a.ByBroker[b] {
			fmt.Fprintf(&sb, "{%s:%.6f,%.6f:", u.ID, u.Load.Rate, u.Load.Bandwidth)
			for _, m := range u.Members {
				if m.SubID != "" {
					sb.WriteString(m.SubID)
				} else {
					sb.WriteString("broker:" + m.ChildBroker)
				}
				sb.WriteByte(',')
			}
			sb.WriteByte('}')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CheckCapacity verifies that every allocated broker is within both
// capacity constraints; used by tests and by Phase 3's optimizations.
func (a *Assignment) CheckCapacity(pubs map[string]*bitvector.PublisherStats) error {
	// Walk brokers in sorted order so that with several violations the
	// reported one is always the same.
	ids := make([]string, 0, len(a.Loads))
	for id := range a.Loads {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		load := a.Loads[id]
		spec, ok := a.Specs[id]
		if !ok {
			return fmt.Errorf("allocation: allocated broker %q missing from specs", id)
		}
		if load.Output.Bandwidth >= spec.OutputBandwidth {
			return fmt.Errorf("allocation: broker %q output %.1f B/s >= capacity %.1f B/s",
				id, load.Output.Bandwidth, spec.OutputBandwidth)
		}
		maxRate := spec.Delay.MaxRate(load.Filters)
		if load.Input.Rate > maxRate+1e-9 {
			return fmt.Errorf("allocation: broker %q input rate %.2f msg/s > max matching rate %.2f msg/s",
				id, load.Input.Rate, maxRate)
		}
	}
	_ = pubs
	return nil
}

// Algorithm is a Phase-2 subscription allocation algorithm.
type Algorithm interface {
	// Allocate assigns every unit in the input to a broker, or fails if
	// at least one unit cannot be placed.
	Allocate(in *Input) (*Assignment, error)
}
