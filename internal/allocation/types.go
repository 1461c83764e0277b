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
// Phase 3, a child broker represented as a pseudo-subscription.
type Member struct {
	// SubID is the subscription ID (empty for pseudo-members).
	SubID string
	// SubscriberID is the owning client (empty for pseudo-members).
	SubscriberID string
	// ChildBroker is the represented child broker ID (empty for real
	// subscriptions).
	ChildBroker string
	// Load is the member's own delivery requirement: the publication rate
	// and bandwidth its broker must send it.
	Load bitvector.Load
}

// Unit is an allocatable cluster of members that share a broker. Its
// profile is the OR of its members' profiles; its load is the sum of its
// members' loads (each member still receives its own copy of every
// matching publication).
type Unit struct {
	// ID uniquely names the unit within one allocation run.
	ID string
	// Members lists the subscriptions (or child brokers) in the cluster.
	Members []Member
	// Profile is the OR of the members' bit-vector profiles.
	Profile *bitvector.Profile
	// Load is the sum of the members' delivery loads.
	Load bitvector.Load
	// Filters is the number of routing-table entries the unit occupies for
	// the matching-delay model: one per real subscription, one per child
	// broker (whose aggregate filter the parent stores once).
	Filters int
}

// NewSubscriptionUnit wraps a single subscription into a unit.
func NewSubscriptionUnit(id string, sub *message.Subscription, profile *bitvector.Profile, load bitvector.Load) *Unit {
	return &Unit{
		ID: id,
		Members: []Member{{
			SubID:        sub.ID,
			SubscriberID: sub.SubscriberID,
			Load:         load,
		}},
		Profile: profile,
		Load:    load,
		Filters: 1,
	}
}

// MergeUnits combines units into one cluster: members concatenate, profiles
// OR together, loads and filter counts add.
func MergeUnits(id string, capacity int, units ...*Unit) *Unit {
	out := &Unit{ID: id, Profile: bitvector.NewProfile(capacity)}
	members := 0
	for _, u := range units {
		members += len(u.Members)
	}
	out.Members = make([]Member, 0, members)
	for _, u := range units {
		out.Members = append(out.Members, u.Members...)
		out.Profile.Or(u.Profile)
		out.Load = out.Load.Add(u.Load)
		out.Filters += u.Filters
	}
	return out
}

// Input is everything an allocation algorithm needs: the unit pool, the
// broker pool, and the publisher statistics for load estimation.
type Input struct {
	Units      []*Unit
	Brokers    []*BrokerSpec
	Publishers map[string]*bitvector.PublisherStats
	// ProfileCapacity is the bit-vector capacity used when algorithms
	// build merged profiles (0 = default).
	ProfileCapacity int
}

// Validate checks structural soundness of the input.
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
		if b.OutputBandwidth <= 0 {
			return fmt.Errorf("allocation: broker %q has non-positive bandwidth", b.ID)
		}
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
		if len(u.Members) == 0 {
			return fmt.Errorf("allocation: unit %q has no members", u.ID)
		}
		// A NaN load orders against nothing: it would void the pool order
		// and every capacity test of the broker that took the unit.
		if math.IsNaN(u.Load.Rate) || math.IsNaN(u.Load.Bandwidth) {
			return fmt.Errorf("allocation: unit %q has a NaN load", u.ID)
		}
	}
	return nil
}

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
	// Profiles maps broker ID to the OR of its hosted unit profiles (the
	// broker's pseudo-subscription for Phase 3).
	Profiles map[string]*bitvector.Profile
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

// SubscriberPlacement maps every real subscription ID to its broker.
func (a *Assignment) SubscriberPlacement() map[string]string {
	out := make(map[string]string)
	for b, us := range a.ByBroker {
		for _, u := range us {
			for _, m := range u.Members {
				if m.SubID != "" {
					out[m.SubID] = b
				}
			}
		}
	}
	return out
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
	// Name returns the paper's name for the algorithm (FBF, BINPACKING,
	// CRAM-IOS, ...).
	Name() string
	// Allocate assigns every unit in the input to a broker, or fails if
	// at least one unit cannot be placed.
	Allocate(in *Input) (*Assignment, error)
}
