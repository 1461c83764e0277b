// Package matching implements the broker's publication-to-subscription
// matching engine. It is deliberately independent of routing concerns: it
// maps a publication to the set of subscriptions it satisfies. Brokers
// attach their own last-hop bookkeeping on top.
package matching

import (
	"fmt"
	"sort"

	"github.com/greenps/greenps/internal/message"
)

// CountingEngine is a counting/index-based matcher: every predicate of
// every subscription is posted under its attribute, and a publication
// probes only the attributes it carries. Each probe that satisfies a
// predicate increments the owning subscription's per-publication hit
// counter; a subscription matches exactly when its counter reaches its
// predicate count. Match cost therefore scales with the number of
// predicates satisfied by the publication's attributes — i.e. with the
// matching (candidate) subscriptions — rather than with the total size
// of the routing table, which is what lets a broker holding a large,
// mostly irrelevant table stay at line rate.
//
// Equality predicates with valid values are posted in per-value hash
// buckets (a probe is one map lookup, no verification needed: the bucket
// hit is the predicate's satisfaction). All other predicates — ranges,
// negations, prefixes, isPresent, and equality on invalid values — are
// posted in a per-attribute list and evaluated against the publication's
// value. Subscriptions with no predicates match every publication and
// live on a separate universal list.
//
// Hit counters are epoch-stamped, so resetting them between publications
// is O(subscriptions touched), not O(table). The engine allocates only
// on Add/Compact; the match path is allocation-free and is pinned by the
// broker's steady-state allocation test.
//
// The engine is not safe for concurrent use; brokers own one engine each
// and serialize access through their event loop.
type CountingEngine struct {
	entries []centry
	byID    map[string]int32
	// postings indexes predicates by attribute.
	postings map[string]*posting
	// universal holds entry indices of zero-predicate subscriptions.
	universal []int32
	// epoch stamps per-publication hit counters; bumped once per match.
	epoch uint64
	// tombstones counts dead entries awaiting Compact.
	tombstones int
	// matchCount tallies publications matched, preserved across Compact.
	matchCount int
}

// centry is the engine's record of one subscription.
type centry struct {
	sub  *message.Subscription
	need int32
	hits int32
	// stamp is the epoch of the last hit; stale stamps mean hits is
	// logically zero.
	stamp uint64
	live  bool
}

// predRef posts one non-bucket predicate of one subscription.
type predRef struct {
	idx  int32
	pred message.Predicate
}

// posting holds all predicates registered under one attribute.
type posting struct {
	// eq buckets equality predicates by canonical value: the map hit is
	// the predicate's satisfaction, no re-verification happens.
	eq map[message.Value][]int32
	// others holds every non-equality predicate on this attribute; each
	// is evaluated against the publication's value.
	others []predRef
}

// NewCountingEngine returns an empty counting engine.
func NewCountingEngine() *CountingEngine {
	return &CountingEngine{
		byID:     make(map[string]int32),
		postings: make(map[string]*posting),
	}
}

// canonicalValue normalizes a value so that struct equality on the
// result coincides with Value.Equal for valid kinds. Invalid kinds map
// to the (invalid) zero Value, which never collides with a valid key.
func canonicalValue(v message.Value) message.Value {
	switch v.Kind {
	case message.KindString:
		return message.Value{Kind: v.Kind, Str: v.Str}
	case message.KindNumber:
		return message.Value{Kind: v.Kind, Num: v.Num}
	case message.KindBool:
		return message.Value{Kind: v.Kind, B: v.B}
	default:
		return message.Value{}
	}
}

// Len returns the number of live subscriptions.
func (e *CountingEngine) Len() int { return len(e.byID) }

// Tombstones reports the number of dead entries awaiting Compact.
func (e *CountingEngine) Tombstones() int { return e.tombstones }

// MatchCount returns the number of Match/MatchFunc/MatchBatch
// publications served, a proxy for the broker's matching work.
func (e *CountingEngine) MatchCount() int { return e.matchCount }

// Add indexes a subscription. Adding an ID that is already present is an
// error; brokers treat duplicate subscription IDs as protocol violations.
func (e *CountingEngine) Add(sub *message.Subscription) error {
	if _, ok := e.byID[sub.ID]; ok {
		return fmt.Errorf("matching: subscription %q already indexed", sub.ID)
	}
	idx := int32(len(e.entries))
	e.entries = append(e.entries, centry{sub: sub, need: int32(len(sub.Predicates)), live: true})
	e.byID[sub.ID] = idx
	if len(sub.Predicates) == 0 {
		e.universal = append(e.universal, idx)
		return nil
	}
	for _, p := range sub.Predicates {
		post, ok := e.postings[p.Attr]
		if !ok {
			post = &posting{}
			e.postings[p.Attr] = post
		}
		if p.Op == message.OpEq && p.Value.IsValid() {
			if post.eq == nil {
				post.eq = make(map[message.Value][]int32)
			}
			k := canonicalValue(p.Value)
			post.eq[k] = append(post.eq[k], idx)
		} else {
			post.others = append(post.others, predRef{idx: idx, pred: p})
		}
	}
	return nil
}

// autoCompactMinTombstones is the floor below which Remove never
// triggers an automatic Compact: small tables rebuild so cheaply that
// compacting on every removal would be pure overhead, while large ones
// must not let dead postings outnumber live entries.
const autoCompactMinTombstones = 64

// Remove drops a subscription by ID. Its entry is tombstoned and skipped
// during matching; once tombstones outnumber live entries (and exceed a
// floor that keeps small tables from thrashing) the engine compacts
// itself, so sustained churn cannot degrade the match path unboundedly.
func (e *CountingEngine) Remove(subID string) error {
	idx, ok := e.byID[subID]
	if !ok {
		return fmt.Errorf("matching: subscription %q not indexed", subID)
	}
	delete(e.byID, subID)
	e.entries[idx].live = false
	e.entries[idx].sub = nil
	e.tombstones++
	if e.tombstones >= autoCompactMinTombstones && e.tombstones > len(e.byID) {
		e.Compact()
	}
	return nil
}

// Compact rebuilds the index, dropping tombstones. Live subscriptions
// are re-added in sorted ID order so the rebuilt index is identical
// across runs, and the match counter survives the rebuild.
func (e *CountingEngine) Compact() {
	subs := make([]*message.Subscription, 0, len(e.byID))
	for _, idx := range e.byID {
		subs = append(subs, e.entries[idx].sub)
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i].ID < subs[j].ID })
	matchCount := e.matchCount
	*e = *NewCountingEngine()
	e.matchCount = matchCount
	for _, s := range subs {
		// Re-adding into a fresh engine cannot collide.
		if err := e.Add(s); err != nil {
			panic("matching: compact re-add: " + err.Error())
		}
	}
}

// Match returns the IDs of all live subscriptions the publication
// satisfies. The returned slice is freshly allocated and owned by the
// caller.
func (e *CountingEngine) Match(pub *message.Publication) []string {
	var out []string
	e.MatchFunc(pub, func(s *message.Subscription) {
		out = append(out, s.ID)
	})
	return out
}

// MatchFunc invokes fn for every live subscription the publication
// satisfies, in unspecified order. fn must not mutate the engine. It is
// the single-publication compatibility form; the broker's hot path uses
// MatchBatch, which avoids this adapter closure.
func (e *CountingEngine) MatchFunc(pub *message.Publication, fn func(*message.Subscription)) {
	e.matchCount++
	e.epoch++
	e.matchOne(pub, 0, func(_ int, s *message.Subscription) { fn(s) })
}

// MatchBatch matches every publication of a batch in one pass over the
// engine, invoking fn(i, sub) for each satisfied subscription of pubs[i].
// Calls arrive in nondecreasing i order, which lets callers process
// per-publication results streamingly. fn must not mutate the engine.
//
//greenvet:hotpath batch matching entry point of Core.HandleBatch; pinned zero-alloc by TestBrokerSteadyStateAllocationFree
func (e *CountingEngine) MatchBatch(pubs []*message.Publication, fn func(int, *message.Subscription)) {
	for i, pub := range pubs {
		e.matchCount++
		e.epoch++
		e.matchOne(pub, i, fn)
	}
}

// matchOne probes the postings of one publication under the current
// epoch. Callers bump the epoch first.
//
//greenvet:hotpath inner probe loop of both match entry points
func (e *CountingEngine) matchOne(pub *message.Publication, pubIdx int, fn func(int, *message.Subscription)) {
	for attr, v := range pub.Attrs {
		post, ok := e.postings[attr]
		if !ok {
			continue
		}
		if post.eq != nil {
			for _, idx := range post.eq[canonicalValue(v)] {
				e.bump(idx, pubIdx, fn)
			}
		}
		for i := range post.others {
			if post.others[i].pred.Matches(v, true) {
				e.bump(post.others[i].idx, pubIdx, fn)
			}
		}
	}
	for _, idx := range e.universal {
		if ent := &e.entries[idx]; ent.live {
			fn(pubIdx, ent.sub)
		}
	}
}

// bump credits one satisfied predicate to a subscription and emits it
// when the count completes the conjunction.
//
//greenvet:hotpath executed once per satisfied predicate per publication
func (e *CountingEngine) bump(idx int32, pubIdx int, fn func(int, *message.Subscription)) {
	ent := &e.entries[idx]
	if !ent.live {
		return
	}
	if ent.stamp != e.epoch {
		ent.stamp = e.epoch
		ent.hits = 0
	}
	ent.hits++
	if ent.hits == ent.need {
		fn(pubIdx, ent.sub)
	}
}

// Subscriptions returns the live subscriptions in unspecified order.
func (e *CountingEngine) Subscriptions() []*message.Subscription {
	out := make([]*message.Subscription, 0, len(e.byID))
	for _, idx := range e.byID {
		out = append(out, e.entries[idx].sub)
	}
	return out
}

// Get returns the live subscription with the given ID, or nil.
func (e *CountingEngine) Get(subID string) *message.Subscription {
	idx, ok := e.byID[subID]
	if !ok {
		return nil
	}
	return e.entries[idx].sub
}
