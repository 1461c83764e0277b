// Package matching implements the broker's publication-to-subscription
// matching engine. It is deliberately independent of routing concerns: it
// maps a publication to the set of subscriptions it satisfies. Brokers
// attach their own last-hop bookkeeping on top, keyed by the dense slot the
// engine gives each subscription.
package matching

import (
	"fmt"
	"slices"
	"strings"

	"github.com/greenps/greenps/internal/message"
)

// CountingEngine is a candidate-and-verify matcher. Every subscription is
// posted exactly once, under its access predicate: the keyed predicate
// (see bucket) whose (attribute, value) the fewest live subscriptions
// constrained when it was added, the first of equals winning — or, when
// it has none, its first predicate, in that attribute's others list.
// Subscriptions with no predicates match every publication and live on
// the universal list. A choice made early can go stale: while every
// subscription so far names one symbol, each ties that symbol with the
// paper's [class,=,'STOCK'], which every subscription carries, and is
// posted under the class. So each time a class's popularity doubles since
// it was last looked at, the engine re-examines the live subscriptions
// posted in it and moves each to its least popular keyed class when that
// is now strictly less popular.
//
// A publication is spread once by attribute index into engine-owned
// scratch, walking whichever is shorter, the engine's interned names or
// the publication's attributes, then probes one equality bucket and one
// others list per attribute it carries. Each subscription found there is
// a candidate: its predicates, compiled against the attribute indices at
// Add, are evaluated in place with Predicate.Holds on the spread values
// and it is emitted when all hold. Match cost scales with the
// candidates — the subscriptions sharing the publication's rarest
// constrained value — not with the routing table, and a table ranging
// over an attribute the publication lacks costs nothing. A string class is
// keyed by its string and a number class by its float64, on which key
// equality is Value.Equal, so a bucket hit decides the access equality and
// only the other predicates are compiled for verification.
//
// Each subscription occupies a slot, a dense index that stays its own
// until it is removed; a slot is reused only after Compact has purged
// every posting that named it, so state callers key by slot stays valid
// across Remove and Compact. Each subscription also carries a route group
// (AddInGroup): a publication emits at most one subscription per nonzero
// group, and MatchRouted closes one group per publication up front. Group
// 0 is never closed, so with every entry in group 0, as Add makes them,
// every match is reported.
//
// The engine allocates only on Add/Compact, which also grow the scratch;
// the match path is allocation-free (TestMatchBatchAllocationFree, the
// broker's steady-state allocation test). It is not safe for concurrent
// use; brokers own one engine each and serialize access through their
// event loop.
type CountingEngine struct {
	// entries is indexed by slot; a removed subscription leaves a tombstone.
	entries []centry
	byID    map[string]int32
	// free holds the tombstoned slots Compact purged from the postings,
	// highest first, so Add reuses the lowest.
	free []int32
	// attrs interns attribute names to dense indices into postings;
	// names is its inverse, the interned names in index order.
	attrs    map[string]int32
	names    []string
	postings []posting
	// universal holds the slots of zero-predicate subscriptions.
	universal []int32
	// carried is scratch as long as postings: the attributes of the current publication.
	carried []int32
	// closed is indexed by route group: the epoch of the publication that
	// last closed it.
	closed []uint64
	// epoch stamps the spread values and closed groups; bumped once per publication.
	epoch uint64
	// tombstones counts dead entries awaiting Compact.
	tombstones int
}

// centry is the engine's record of one subscription; a tombstone has a nil sub.
type centry struct {
	sub *message.Subscription
	// preds is sub.Predicates less the access equality, compiled for
	// verification; nil when the bucket hit decides them all.
	preds []cpred
	group int32
	// at indexes the access equality in sub.Predicates, -1 when it has none.
	at int32
}

// cpred is one predicate with its attribute interned.
type cpred struct {
	attr int32
	pred message.Predicate
}

// posting holds the subscriptions posted under one attribute and, while
// seen equals the engine's epoch, the current publication's value for it.
type posting struct {
	// str, num, yes and no are the equality classes on the attribute's
	// string, number, true and false values; num has no NaN key, and its
	// float64 keys make +0 and -0 one class.
	str     map[string]*bucket
	num     map[float64]*bucket
	yes, no *bucket
	// others holds the subscriptions without a keyed predicate whose first
	// predicate is on this attribute.
	others []int32
	// posted is the number of slots posted in the classes, tombstones
	// included: the sum of their len(ids). matchOne skips the class lookup
	// when it is 0, as it is for class='STOCK' once re-examination has
	// moved every subscription out.
	posted int
	val    message.Value
	seen   uint64
}

// bucket is one (attribute, value) equality class.
type bucket struct {
	// pop counts the equality predicates live subscriptions have on this
	// value, posted here or not: the popularity Add minimizes.
	pop int32
	// looked is pop when the live postings in ids were last re-examined.
	looked int32
	ids    []int32
}

// reexamineFloor is the popularity below which a class is never
// re-examined: a small class costs little to probe whatever it holds.
// Above it a class is re-examined each time its popularity doubles, so the
// work is amortized over the adds that made it grow.
const reexamineFloor = 8

// NewCountingEngine returns an empty engine.
func NewCountingEngine() *CountingEngine {
	return &CountingEngine{byID: make(map[string]int32), attrs: make(map[string]int32), closed: make([]uint64, 1)}
}

// Len returns the number of live subscriptions.
func (e *CountingEngine) Len() int { return len(e.byID) }

// bucket returns the equality class of a keyed predicate on attribute a,
// creating it when asked, and nil for any other predicate. A predicate is
// keyed when it is an equality on a value that equals itself, which no
// invalid kind and no NaN does.
func (e *CountingEngine) bucket(a int32, p message.Predicate, create bool) *bucket {
	if p.Op != message.OpEq {
		return nil
	}
	return e.postings[a].class(&p.Value, create)
}

// class returns the equality class of v, creating it when asked, and nil
// for NaN and invalid kinds, which equal nothing.
func (post *posting) class(v *message.Value, create bool) *bucket {
	switch v.Kind {
	case message.KindString:
		b := post.str[v.Str]
		if b == nil && create {
			b = &bucket{}
			post.str[v.Str] = b
		}
		return b
	case message.KindNumber:
		if v.Num != v.Num {
			return nil
		}
		b := post.num[v.Num]
		if b == nil && create {
			b = &bucket{}
			post.num[v.Num] = b
		}
		return b
	case message.KindBool:
		b := &post.no
		if v.B {
			b = &post.yes
		}
		if *b == nil && create {
			*b = &bucket{}
		}
		return *b
	}
	return nil
}

// Add indexes a subscription in route group 0. Adding an ID that is
// already present is an error; brokers treat duplicate subscription IDs
// as protocol violations.
func (e *CountingEngine) Add(sub *message.Subscription) error {
	_, err := e.AddInGroup(sub, 0)
	return err
}

// AddInGroup indexes a subscription in a route group and returns its
// slot. Groups are small dense indices (≥ 0): the engine keeps one word
// per group up to the largest.
func (e *CountingEngine) AddInGroup(sub *message.Subscription, group int32) (int32, error) {
	if _, ok := e.byID[sub.ID]; ok {
		return 0, fmt.Errorf("matching: subscription %q already indexed", sub.ID)
	}
	if group < 0 {
		return 0, fmt.Errorf("matching: subscription %q in negative route group %d", sub.ID, group)
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot, e.free = e.free[n-1], e.free[:n-1]
	} else {
		slot = int32(len(e.entries))
		e.entries = append(e.entries, centry{})
	}
	if grow := int(group) + 1 - len(e.closed); grow > 0 {
		e.closed = append(e.closed, make([]uint64, grow)...)
	}
	e.byID[sub.ID] = slot
	e.entries[slot] = centry{sub: sub, group: group}
	e.index(slot)
	return slot, nil
}

// index chooses the access predicate of the subscription in slot, counts
// its popularity, compiles the rest of its predicates and posts it. A
// class whose popularity this doubles since its last look is re-examined
// before the subscription is posted.
func (e *CountingEngine) index(slot int32) {
	ent := &e.entries[slot]
	// access is the least popular equality class so far and least its
	// popularity without this subscription; ties keep the first predicate.
	var access *bucket
	var least, accessAttr int32
	ent.at = -1
	for i, p := range ent.sub.Predicates {
		a, ok := e.attrs[p.Attr]
		if !ok { // first sight: grow the postings and the match scratch
			a = int32(len(e.postings))
			e.attrs[p.Attr] = a
			e.names = append(e.names, p.Attr)
			e.postings = append(e.postings, posting{str: make(map[string]*bucket), num: make(map[float64]*bucket)})
			e.carried = append(e.carried, 0)
		}
		if b := e.bucket(a, p, true); b != nil {
			if access == nil || b.pop < least {
				access, least, ent.at, accessAttr = b, b.pop, int32(i), a
			}
			b.pop++
			if b.pop >= reexamineFloor && b.pop >= 2*b.looked {
				e.reexamine(a, b)
			}
		}
	}
	verify := len(ent.sub.Predicates)
	if access != nil {
		verify--
	}
	if verify > 0 {
		ent.preds = make([]cpred, 0, verify)
		e.compile(ent)
	}
	switch {
	case len(ent.sub.Predicates) == 0:
		e.universal = append(e.universal, slot)
	case access == nil:
		post := &e.postings[ent.preds[0].attr]
		post.others = append(post.others, slot)
	default:
		access.ids = append(access.ids, slot)
		e.postings[accessAttr].posted++
	}
}

// compile writes the predicates of ent but its access equality into
// ent.preds, in order, with their attributes interned. It reuses the
// slice, which holds all of them.
func (e *CountingEngine) compile(ent *centry) {
	ent.preds = ent.preds[:0]
	for i, p := range ent.sub.Predicates {
		if i != int(ent.at) {
			ent.preds = append(ent.preds, cpred{attr: e.attrs[p.Attr], pred: p})
		}
	}
}

// reexamine moves every live subscription posted in b, a class on
// attribute a, to its least popular keyed class, the first of equals
// winning, when that is strictly less popular than b, and recompiles its
// predicates in place. The slots that stay, tombstones among them until
// Compact, keep their order.
func (e *CountingEngine) reexamine(a int32, b *bucket) {
	b.looked = b.pop
	kept := b.ids[:0]
	for _, slot := range b.ids {
		ent := &e.entries[slot]
		if ent.sub == nil {
			kept = append(kept, slot)
			continue
		}
		// ent.preds holds the predicates in order but the one at ent.at.
		to, toAttr, at := b, a, ent.at
		for k := range ent.preds {
			if c := e.bucket(ent.preds[k].attr, ent.preds[k].pred, false); c != nil && c.pop < to.pop {
				to, toAttr, at = c, ent.preds[k].attr, int32(k)
				if at >= ent.at {
					at++
				}
			}
		}
		if to == b {
			kept = append(kept, slot)
			continue
		}
		ent.at = at
		e.compile(ent)
		to.ids = append(to.ids, slot)
		e.postings[a].posted--
		e.postings[toAttr].posted++
	}
	b.ids = kept
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
	slot, ok := e.byID[subID]
	if !ok {
		return fmt.Errorf("matching: subscription %q not indexed", subID)
	}
	delete(e.byID, subID)
	for _, p := range e.entries[slot].sub.Predicates {
		if b := e.bucket(e.attrs[p.Attr], p, false); b != nil {
			b.pop--
		}
	}
	e.entries[slot] = centry{}
	e.tombstones++
	if e.tombstones >= autoCompactMinTombstones && e.tombstones > len(e.byID) {
		e.Compact()
	}
	return nil
}

// Compact rebuilds the index, dropping tombstones. Live subscriptions
// keep their slots and groups and are re-indexed in sorted ID order, so
// the rebuilt index — access choices and popularity included — is
// identical across runs; the freed slots become reusable and the match
// counter survives the rebuild.
func (e *CountingEngine) Compact() {
	live := make([]int32, 0, len(e.byID))
	for _, slot := range e.byID {
		live = append(live, slot)
	}
	slices.SortFunc(live, func(a, b int32) int { return strings.Compare(e.entries[a].sub.ID, e.entries[b].sub.ID) })
	e.attrs = make(map[string]int32)
	e.names, e.postings, e.universal, e.carried = nil, nil, nil, nil
	for _, slot := range live {
		e.index(slot)
	}
	e.free = e.free[:0]
	for slot := int32(len(e.entries)) - 1; slot >= 0; slot-- {
		if e.entries[slot].sub == nil {
			e.free = append(e.free, slot)
		}
	}
	e.tombstones = 0
}

// MatchBatch matches every publication of a batch in one pass over the
// engine, invoking fn(i, sub) for each satisfied subscription of pubs[i].
// Calls arrive in nondecreasing i order, which lets callers process
// per-publication results streamingly. fn must not mutate the engine.
func (e *CountingEngine) MatchBatch(pubs []*message.Publication, fn func(int, *message.Subscription)) {
	for i, pub := range pubs {
		e.matchOne(pub, i, 0, func(i int, slot int32) { fn(i, e.entries[slot].sub) })
	}
}

// MatchRouted is MatchBatch for routers: fn(i, slot) receives the slot of
// each emitted subscription, route group arrivals[i] is closed before
// pubs[i] is matched, and each other nonzero group closes at its first
// emitted match, so the rest of its candidates are skipped unverified.
func (e *CountingEngine) MatchRouted(pubs []*message.Publication, arrivals []int32, fn func(int, int32)) {
	for i, pub := range pubs {
		e.matchOne(pub, i, arrivals[i], fn)
	}
}

// matchOne spreads one publication under a fresh epoch, closes the
// arrival group, probes the postings of the attributes the publication
// carries and emits the candidates whose predicates all hold.
func (e *CountingEngine) matchOne(pub *message.Publication, pubIdx int, arrival int32, fn func(int, int32)) {
	e.epoch++
	if arrival > 0 && int(arrival) < len(e.closed) {
		e.closed[arrival] = e.epoch
	}
	n := e.spread(pub)
	for _, a := range e.carried[:n] {
		post := &e.postings[a]
		if post.posted > 0 {
			if b := post.class(&post.val, false); b != nil {
				e.probe(b.ids, pubIdx, fn)
			}
		}
		e.probe(post.others, pubIdx, fn)
	}
	e.probe(e.universal, pubIdx, fn)
}

// spread records the publication's value of every interned attribute it
// carries under the current epoch and lists those attributes in carried,
// returning their number. It walks the smaller side: the engine's names,
// each looked up in the publication, when the engine interns fewer names
// than the publication carries, else the publication's attributes, each
// looked up in the engine. Either way carried holds the same attributes;
// only their order differs, and no emission depends on it.
func (e *CountingEngine) spread(pub *message.Publication) int {
	n := 0
	if len(e.names) < len(pub.Attrs) {
		for a, name := range e.names {
			if v, ok := pub.Attrs[name]; ok {
				post := &e.postings[a]
				post.val, post.seen = v, e.epoch
				e.carried[n] = int32(a)
				n++
			}
		}
		return n
	}
	for attr, v := range pub.Attrs {
		if a, ok := e.attrs[attr]; ok {
			post := &e.postings[a]
			post.val, post.seen = v, e.epoch
			e.carried[n] = a
			n++
		}
	}
	return n
}

// probe emits the live candidates among slots whose group is open and
// whose remaining predicates all hold, closing the group of each. Group 0
// is never stamped, so it never reads as closed.
func (e *CountingEngine) probe(slots []int32, pubIdx int, fn func(int, int32)) {
	for _, slot := range slots {
		ent := &e.entries[slot]
		if ent.sub == nil || e.closed[ent.group] == e.epoch || ent.preds != nil && !e.holds(ent.preds) {
			continue
		}
		if ent.group != 0 {
			e.closed[ent.group] = e.epoch
		}
		fn(pubIdx, slot)
	}
}

// holds evaluates a candidate's compiled predicates on the spread
// publication, in place: a predicate on an attribute the publication does
// not carry fails, as Predicate.Matches with present false does.
func (e *CountingEngine) holds(preds []cpred) bool {
	for i := range preds {
		p := &preds[i]
		post := &e.postings[p.attr]
		if post.seen != e.epoch || !p.pred.Holds(&post.val) {
			return false
		}
	}
	return true
}

// Subscriptions returns the live subscriptions in unspecified order.
func (e *CountingEngine) Subscriptions() []*message.Subscription {
	out := make([]*message.Subscription, 0, len(e.byID))
	for _, slot := range e.byID {
		out = append(out, e.entries[slot].sub)
	}
	return out
}

// Get returns the live subscription with the given ID, or nil.
func (e *CountingEngine) Get(subID string) *message.Subscription {
	if slot, ok := e.byID[subID]; ok {
		return e.entries[slot].sub
	}
	return nil
}

// Slot returns the slot of the live subscription with the given ID.
func (e *CountingEngine) Slot(subID string) (int32, bool) {
	slot, ok := e.byID[subID]
	return slot, ok
}
