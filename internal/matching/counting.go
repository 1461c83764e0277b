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

// CountingEngine is a candidate-and-verify matcher. Every subscription is
// posted exactly once, under its access predicate: the keyed predicate
// (see keyed) whose (attribute, value) the fewest live subscriptions
// constrain — so the paper's [class,=,'STOCK'], which every subscription
// carries, is not the access path of one that also names a symbol — or,
// when it has none, its first predicate, in that attribute's others list.
// Subscriptions with no predicates match every publication and live on
// the universal list.
//
// A publication is spread once by attribute index into engine-owned
// scratch, then probes one equality bucket and one others list per
// attribute it carries. Each subscription found there is a candidate: its
// predicates, compiled against the attribute indices at Add, are
// evaluated with Predicate.Matches on the spread values and it is emitted
// when all hold. Match cost scales with the candidates — the
// subscriptions sharing the publication's rarest constrained value — not
// with the routing table, and a table ranging over an attribute the
// publication lacks costs nothing. A bucket is keyed by canonical value,
// on which key equality is Value.Equal, so a subscription whose only
// predicate is its access equality is emitted on the bucket hit.
//
// The engine allocates only on Add/Compact, which also grow the scratch;
// the match path is allocation-free (TestMatchBatchAllocationFree, the
// broker's steady-state allocation test). It is not safe for concurrent
// use; brokers own one engine each and serialize access through their
// event loop.
type CountingEngine struct {
	entries []centry
	byID    map[string]int32
	// attrs interns attribute names to dense indices into postings.
	attrs    map[string]int32
	postings []posting
	// universal holds entry indices of zero-predicate subscriptions.
	universal []int32
	// carried is scratch as long as postings: the attributes of the current publication.
	carried []int32
	// epoch stamps the spread values; bumped once per publication.
	epoch uint64
	// tombstones counts dead entries awaiting Compact.
	tombstones int
	// matchCount tallies publications matched, preserved across Compact.
	matchCount int
}

// centry is the engine's record of one subscription; a tombstone is zero.
type centry struct {
	sub *message.Subscription
	// preds is sub.Predicates compiled for verification; nil when the
	// only predicate is the access equality, which the bucket hit decides.
	preds []cpred
}

// cpred is one predicate with its attribute interned.
type cpred struct {
	attr int32
	pred message.Predicate
}

// posting holds the subscriptions posted under one attribute and, while
// seen equals the engine's epoch, the current publication's value for it.
type posting struct {
	// eq buckets subscriptions by the canonical value of their access equality.
	eq map[message.Value]*bucket
	// others holds the subscriptions without a keyed predicate whose first
	// predicate is on this attribute.
	others []int32
	val    message.Value
	seen   uint64
}

// bucket is one (attribute, value) equality class.
type bucket struct {
	// pop counts the equality predicates live subscriptions have on this
	// value, posted here or not: the popularity Add minimizes.
	pop int32
	ids []int32
}

// NewCountingEngine returns an empty engine.
func NewCountingEngine() *CountingEngine {
	return &CountingEngine{byID: make(map[string]int32), attrs: make(map[string]int32)}
}

// canonicalValue normalizes a value so that struct equality on the
// result coincides with Value.Equal for valid kinds. Invalid kinds map
// to the (invalid) zero Value, which never collides with a valid key.
func canonicalValue(v message.Value) message.Value {
	switch v.Kind {
	case message.KindString:
		return message.String(v.Str)
	case message.KindNumber:
		return message.Number(v.Num)
	case message.KindBool:
		return message.Bool(v.B)
	}
	return message.Value{}
}

// Len returns the number of live subscriptions.
func (e *CountingEngine) Len() int { return len(e.byID) }

// Tombstones reports the number of dead entries awaiting Compact.
func (e *CountingEngine) Tombstones() int { return e.tombstones }

// MatchCount returns the number of Match/MatchFunc/MatchBatch
// publications served, a proxy for the broker's matching work.
func (e *CountingEngine) MatchCount() int { return e.matchCount }

// keyed reports whether p has an equality class: it is an equality on a
// value that equals itself, which no invalid kind and no NaN does.
func keyed(p message.Predicate) bool { return p.Op == message.OpEq && p.Value.Equal(p.Value) }

// bucket returns the equality class of a keyed predicate on attribute a,
// creating it when asked, and nil for any other predicate.
func (e *CountingEngine) bucket(a int32, p message.Predicate, create bool) *bucket {
	if !keyed(p) {
		return nil
	}
	post, k := &e.postings[a], canonicalValue(p.Value)
	b := post.eq[k]
	if b == nil && create {
		b = &bucket{}
		post.eq[k] = b
	}
	return b
}

// Add indexes a subscription. Adding an ID that is already present is an
// error; brokers treat duplicate subscription IDs as protocol violations.
func (e *CountingEngine) Add(sub *message.Subscription) error {
	if _, ok := e.byID[sub.ID]; ok {
		return fmt.Errorf("matching: subscription %q already indexed", sub.ID)
	}
	idx := int32(len(e.entries))
	e.byID[sub.ID] = idx
	var preds []cpred // stays nil for a lone access equality
	if len(sub.Predicates) != 1 || !keyed(sub.Predicates[0]) {
		preds = make([]cpred, len(sub.Predicates))
	}
	// access is the least popular equality class so far and least its
	// popularity without this subscription; ties keep the first predicate.
	var access *bucket
	var least int32
	for i, p := range sub.Predicates {
		a, ok := e.attrs[p.Attr]
		if !ok { // first sight: grow the postings and the match scratch
			a = int32(len(e.postings))
			e.attrs[p.Attr] = a
			e.postings = append(e.postings, posting{eq: make(map[message.Value]*bucket)})
			e.carried = append(e.carried, 0)
		}
		if preds != nil {
			preds[i] = cpred{attr: a, pred: p}
		}
		if b := e.bucket(a, p, true); b != nil {
			if access == nil || b.pop < least {
				access, least = b, b.pop
			}
			b.pop++
		}
	}
	switch {
	case len(sub.Predicates) == 0:
		e.universal = append(e.universal, idx)
	case access == nil:
		post := &e.postings[preds[0].attr]
		post.others = append(post.others, idx)
	default:
		access.ids = append(access.ids, idx)
	}
	e.entries = append(e.entries, centry{sub: sub, preds: preds})
	return nil
}

// autoCompactMinTombstones is the floor below which Remove never
// triggers an automatic Compact: small tables rebuild so cheaply that
// compacting on every removal would be pure overhead, while large ones
// must not let dead postings outnumber live entries.
const autoCompactMinTombstones = 64

// Remove drops a subscription by ID. Its entry is tombstoned, skipped
// during matching and no longer counted in popularity; once tombstones
// outnumber live entries (and exceed the floor above) the engine compacts
// itself, so sustained churn cannot degrade the match path unboundedly.
func (e *CountingEngine) Remove(subID string) error {
	idx, ok := e.byID[subID]
	if !ok {
		return fmt.Errorf("matching: subscription %q not indexed", subID)
	}
	delete(e.byID, subID)
	for _, p := range e.entries[idx].sub.Predicates {
		if b := e.bucket(e.attrs[p.Attr], p, false); b != nil {
			b.pop--
		}
	}
	e.entries[idx] = centry{}
	e.tombstones++
	if e.tombstones >= autoCompactMinTombstones && e.tombstones > len(e.byID) {
		e.Compact()
	}
	return nil
}

// Compact rebuilds the index, dropping tombstones. Live subscriptions
// are re-added in sorted ID order so the rebuilt index — access choices
// and popularity included — is identical across runs, and the match
// counter survives the rebuild.
func (e *CountingEngine) Compact() {
	subs := e.Subscriptions()
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
	e.MatchFunc(pub, func(s *message.Subscription) { out = append(out, s.ID) })
	return out
}

// MatchFunc invokes fn for every live subscription the publication
// satisfies, in unspecified order. fn must not mutate the engine. The
// broker's hot path uses MatchBatch, which avoids this adapter closure.
func (e *CountingEngine) MatchFunc(pub *message.Publication, fn func(*message.Subscription)) {
	e.matchOne(pub, 0, func(_ int, s *message.Subscription) { fn(s) })
}

// MatchBatch matches every publication of a batch in one pass over the
// engine, invoking fn(i, sub) for each satisfied subscription of pubs[i].
// Calls arrive in nondecreasing i order, which lets callers process
// per-publication results streamingly. fn must not mutate the engine.
//
//greenvet:hotpath batch matching entry point of Core.HandleBatch; pinned zero-alloc by TestMatchBatchAllocationFree and TestBrokerSteadyStateAllocationFree
func (e *CountingEngine) MatchBatch(pubs []*message.Publication, fn func(int, *message.Subscription)) {
	for i, pub := range pubs {
		e.matchOne(pub, i, fn)
	}
}

// matchOne spreads one publication under a fresh epoch, probes the
// postings of the attributes it carries and emits the candidates whose
// predicates all hold.
//
//greenvet:hotpath spread and probe loop of both match entry points
func (e *CountingEngine) matchOne(pub *message.Publication, pubIdx int, fn func(int, *message.Subscription)) {
	e.matchCount++
	e.epoch++
	n := 0
	for attr, v := range pub.Attrs {
		if a, ok := e.attrs[attr]; ok {
			post := &e.postings[a]
			post.val, post.seen = v, e.epoch
			e.carried[n] = a
			n++
		}
	}
	for _, a := range e.carried[:n] {
		post := &e.postings[a]
		if b := post.eq[canonicalValue(post.val)]; b != nil {
			e.probe(b.ids, pubIdx, fn)
		}
		e.probe(post.others, pubIdx, fn)
	}
	e.probe(e.universal, pubIdx, fn)
}

// probe emits the live candidates among ids whose predicates all hold; a
// lone access equality (nil preds) was decided by the bucket hit.
//
//greenvet:hotpath candidate loop of matchOne
func (e *CountingEngine) probe(ids []int32, pubIdx int, fn func(int, *message.Subscription)) {
	for _, idx := range ids {
		if ent := &e.entries[idx]; ent.sub != nil && (ent.preds == nil || e.holds(ent.preds)) {
			fn(pubIdx, ent.sub)
		}
	}
}

// holds evaluates a candidate's compiled predicates on the spread publication.
//
//greenvet:hotpath executed once per candidate per publication
func (e *CountingEngine) holds(preds []cpred) bool {
	for i := range preds {
		post := &e.postings[preds[i].attr]
		if !preds[i].pred.Matches(post.val, post.seen == e.epoch) {
			return false
		}
	}
	return true
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
	if idx, ok := e.byID[subID]; ok {
		return e.entries[idx].sub
	}
	return nil
}
