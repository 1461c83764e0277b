package matching

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/greenps/greenps/internal/message"
)

// entry is the engine's record of one subscription.
type entry struct {
	sub  *message.Subscription
	live bool
}

// Engine is the access-predicate matcher the brokers ran before
// CountingEngine, kept as the reference its tests compare against: every
// subscription with at least one equality predicate is registered in a
// bucket keyed by (attribute, value) — choosing, at insertion time, the
// equality predicate whose bucket is currently smallest, which adaptively
// avoids degenerate buckets like class='STOCK' that every subscription
// shares. A publication probes one bucket per attribute it carries and
// fully verifies each candidate. Subscriptions without any equality
// predicate live in a fallback list verified against every publication.
type Engine struct {
	entries []entry
	byID    map[string]int
	// index buckets subscriptions by their access predicate:
	// attr -> canonical value -> entry indices.
	index map[string]map[string][]int
	// fallback holds entry indices of subscriptions with no equality
	// predicate; they are candidates for every publication.
	fallback []int
	// tombstones counts dead posting entries; Compact clears them.
	tombstones int
	// matchCount tallies total publications matched, for broker metrics.
	matchCount int
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		byID:  make(map[string]int),
		index: make(map[string]map[string][]int),
	}
}

// valueKey canonicalizes a value for bucket lookup.
func valueKey(v message.Value) string {
	switch v.Kind {
	case message.KindString:
		return "s:" + v.Str
	case message.KindNumber:
		return "n:" + strconv.FormatFloat(v.Num, 'g', -1, 64)
	case message.KindBool:
		return "b:" + strconv.FormatBool(v.B)
	default:
		return "?"
	}
}

// Len returns the number of live subscriptions.
func (e *Engine) Len() int { return len(e.byID) }

// Add indexes a subscription. Adding an ID that is already present is an
// error; brokers treat duplicate subscription IDs as protocol violations.
func (e *Engine) Add(sub *message.Subscription) error {
	if _, ok := e.byID[sub.ID]; ok {
		return fmt.Errorf("matching: subscription %q already indexed", sub.ID)
	}
	idx := len(e.entries)
	e.entries = append(e.entries, entry{sub: sub, live: true})
	e.byID[sub.ID] = idx

	// Choose the equality predicate with the currently smallest bucket as
	// the access predicate.
	bestAttr, bestKey, bestLen := "", "", -1
	for _, p := range sub.Predicates {
		if p.Op != message.OpEq {
			continue
		}
		k := valueKey(p.Value)
		n := 0
		if buckets, ok := e.index[p.Attr]; ok {
			n = len(buckets[k])
		}
		if bestLen < 0 || n < bestLen {
			bestAttr, bestKey, bestLen = p.Attr, k, n
		}
	}
	if bestLen < 0 {
		e.fallback = append(e.fallback, idx)
		return nil
	}
	buckets, ok := e.index[bestAttr]
	if !ok {
		buckets = make(map[string][]int)
		e.index[bestAttr] = buckets
	}
	buckets[bestKey] = append(buckets[bestKey], idx)
	return nil
}

// Remove drops a subscription by ID. Its posting entry is tombstoned and
// skipped during matching; once tombstones outnumber live entries (and
// exceed a floor that keeps small tables from thrashing) the engine
// compacts itself, so sustained churn cannot degrade MatchFunc
// unboundedly.
func (e *Engine) Remove(subID string) error {
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

// Tombstones reports the number of dead posting entries awaiting Compact.
func (e *Engine) Tombstones() int { return e.tombstones }

// Compact rebuilds the index, dropping tombstones. Brokers call it after
// bulk unsubscriptions (e.g. during reconfiguration). Live subscriptions
// are re-added in sorted ID order so the rebuilt access-predicate choice
// is identical across runs, and the match counter survives the rebuild
// (it used to be silently zeroed, wiping broker matching metrics after
// every reconfiguration).
func (e *Engine) Compact() {
	subs := make([]*message.Subscription, 0, len(e.byID))
	for _, idx := range e.byID {
		subs = append(subs, e.entries[idx].sub)
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i].ID < subs[j].ID })
	matchCount := e.matchCount
	*e = *NewEngine()
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
func (e *Engine) Match(pub *message.Publication) []string {
	var out []string
	e.MatchFunc(pub, func(s *message.Subscription) {
		out = append(out, s.ID)
	})
	return out
}

// MatchFunc invokes fn for every live subscription the publication
// satisfies. fn must not mutate the engine.
func (e *Engine) MatchFunc(pub *message.Publication, fn func(*message.Subscription)) {
	e.matchCount++
	verify := func(idx int) {
		ent := &e.entries[idx]
		if ent.live && ent.sub.Matches(pub) {
			fn(ent.sub)
		}
	}
	for attr, v := range pub.Attrs {
		buckets, ok := e.index[attr]
		if !ok {
			continue
		}
		for _, idx := range buckets[valueKey(v)] {
			verify(idx)
		}
	}
	for _, idx := range e.fallback {
		verify(idx)
	}
}

// MatchCount returns the number of Match/MatchFunc calls served, a proxy
// for the broker's matching work.
func (e *Engine) MatchCount() int { return e.matchCount }

// Subscriptions returns the live subscriptions in unspecified order.
func (e *Engine) Subscriptions() []*message.Subscription {
	out := make([]*message.Subscription, 0, len(e.byID))
	for _, idx := range e.byID {
		out = append(out, e.entries[idx].sub)
	}
	return out
}

// Get returns the live subscription with the given ID, or nil.
func (e *Engine) Get(subID string) *message.Subscription {
	idx, ok := e.byID[subID]
	if !ok {
		return nil
	}
	return e.entries[idx].sub
}

func pub(symbol string, low, volume float64) *message.Publication {
	return message.NewPublication("ADV-"+symbol, 1, map[string]message.Value{
		"class":  message.String("STOCK"),
		"symbol": message.String(symbol),
		"low":    message.Number(low),
		"volume": message.Number(volume),
	})
}

func TestAddMatchRemove(t *testing.T) {
	e := NewEngine()
	s1 := message.NewSubscription("s1", "c1", []message.Predicate{
		message.Pred("class", message.OpEq, message.String("STOCK")),
		message.Pred("symbol", message.OpEq, message.String("YHOO")),
	})
	s2 := message.NewSubscription("s2", "c1", []message.Predicate{
		message.Pred("class", message.OpEq, message.String("STOCK")),
		message.Pred("symbol", message.OpEq, message.String("YHOO")),
		message.Pred("low", message.OpLt, message.Number(19)),
	})
	s3 := message.NewSubscription("s3", "c2", []message.Predicate{
		message.Pred("symbol", message.OpEq, message.String("GOOG")),
	})
	for _, s := range []*message.Subscription{s1, s2, s3} {
		if err := e.Add(s); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	if e.Len() != 3 {
		t.Fatalf("len = %d, want 3", e.Len())
	}
	got := e.Match(pub("YHOO", 18, 100))
	sort.Strings(got)
	if fmt.Sprint(got) != "[s1 s2]" {
		t.Fatalf("match = %v, want [s1 s2]", got)
	}
	got = e.Match(pub("YHOO", 25, 100))
	if fmt.Sprint(got) != "[s1]" {
		t.Fatalf("match = %v, want [s1]", got)
	}
	if err := e.Remove("s1"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	got = e.Match(pub("YHOO", 18, 100))
	if fmt.Sprint(got) != "[s2]" {
		t.Fatalf("after remove, match = %v, want [s2]", got)
	}
	if e.Len() != 2 {
		t.Fatalf("len after remove = %d, want 2", e.Len())
	}
}

func TestDuplicateAddRejected(t *testing.T) {
	e := NewEngine()
	s := message.NewSubscription("dup", "c", nil)
	if err := e.Add(s); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(s); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

func TestRemoveUnknownRejected(t *testing.T) {
	e := NewEngine()
	if err := e.Remove("ghost"); err == nil {
		t.Fatal("removing unknown subscription must fail")
	}
}

func TestZeroPredicateMatchesEverything(t *testing.T) {
	e := NewEngine()
	if err := e.Add(message.NewSubscription("all", "c", nil)); err != nil {
		t.Fatal(err)
	}
	if got := e.Match(pub("YHOO", 1, 1)); len(got) != 1 || got[0] != "all" {
		t.Fatalf("zero-predicate sub missed: %v", got)
	}
}

func TestMultiplePredicatesSameAttribute(t *testing.T) {
	e := NewEngine()
	s := message.NewSubscription("range", "c", []message.Predicate{
		message.Pred("low", message.OpGt, message.Number(10)),
		message.Pred("low", message.OpLt, message.Number(20)),
	})
	if err := e.Add(s); err != nil {
		t.Fatal(err)
	}
	if got := e.Match(pub("X", 15, 1)); len(got) != 1 {
		t.Fatalf("in-range value missed: %v", got)
	}
	if got := e.Match(pub("X", 25, 1)); len(got) != 0 {
		t.Fatalf("out-of-range value matched: %v", got)
	}
}

func TestCompactPreservesLiveSubscriptions(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		s := message.NewSubscription(fmt.Sprintf("s%d", i), "c", []message.Predicate{
			message.Pred("symbol", message.OpEq, message.String("YHOO")),
		})
		if err := e.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i += 2 {
		if err := e.Remove(fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	e.Compact()
	if e.Len() != 5 {
		t.Fatalf("len after compact = %d, want 5", e.Len())
	}
	got := e.Match(pub("YHOO", 1, 1))
	if len(got) != 5 {
		t.Fatalf("matches after compact = %d, want 5", len(got))
	}
}

func TestGetAndSubscriptions(t *testing.T) {
	e := NewEngine()
	s := message.NewSubscription("s1", "c", nil)
	if err := e.Add(s); err != nil {
		t.Fatal(err)
	}
	if e.Get("s1") != s {
		t.Fatal("Get returned wrong subscription")
	}
	if e.Get("nope") != nil {
		t.Fatal("Get of unknown must be nil")
	}
	if len(e.Subscriptions()) != 1 {
		t.Fatal("Subscriptions() wrong length")
	}
}

// TestQuickMatchesBruteForce compares the engine against per-subscription
// Matches() on randomized workloads.
func TestQuickMatchesBruteForce(t *testing.T) {
	symbols := []string{"YHOO", "GOOG", "IBM", "MSFT"}
	attrs := []string{"low", "high", "volume"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var subs []*message.Subscription
		for i := 0; i < 60; i++ {
			var preds []message.Predicate
			preds = append(preds, message.Pred("symbol", message.OpEq,
				message.String(symbols[rng.Intn(len(symbols))])))
			np := rng.Intn(3)
			for j := 0; j < np; j++ {
				attr := attrs[rng.Intn(len(attrs))]
				ops := []message.Op{message.OpLt, message.OpLe, message.OpGt,
					message.OpGe, message.OpEq, message.OpNeq}
				preds = append(preds, message.Pred(attr, ops[rng.Intn(len(ops))],
					message.Number(float64(rng.Intn(50)))))
			}
			s := message.NewSubscription(fmt.Sprintf("s%d", i), "c", preds)
			subs = append(subs, s)
			if err := e.Add(s); err != nil {
				t.Logf("add: %v", err)
				return false
			}
		}
		// Random removals.
		removed := make(map[string]bool)
		for i := 0; i < 15; i++ {
			id := fmt.Sprintf("s%d", rng.Intn(60))
			if !removed[id] {
				if err := e.Remove(id); err != nil {
					t.Logf("remove: %v", err)
					return false
				}
				removed[id] = true
			}
		}
		for i := 0; i < 30; i++ {
			p := message.NewPublication("A", i, map[string]message.Value{
				"symbol": message.String(symbols[rng.Intn(len(symbols))]),
				"low":    message.Number(float64(rng.Intn(50))),
				"high":   message.Number(float64(rng.Intn(50))),
				"volume": message.Number(float64(rng.Intn(50))),
			})
			got := e.Match(p)
			sort.Strings(got)
			var want []string
			for _, s := range subs {
				if !removed[s.ID] && s.Matches(p) {
					want = append(want, s.ID)
				}
			}
			sort.Strings(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Logf("pub %v: got %v want %v", p, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatch8000Subs(b *testing.B) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8000; i++ {
		sym := fmt.Sprintf("SYM%02d", i%40)
		preds := []message.Predicate{
			message.Pred("class", message.OpEq, message.String("STOCK")),
			message.Pred("symbol", message.OpEq, message.String(sym)),
		}
		if i%5 >= 2 { // 60% carry an inequality
			preds = append(preds, message.Pred("low", message.OpLt,
				message.Number(rng.Float64()*100)))
		}
		if err := e.Add(message.NewSubscription(fmt.Sprintf("s%d", i), "c", preds)); err != nil {
			b.Fatal(err)
		}
	}
	p := pub("SYM07", 50, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MatchFunc(p, func(*message.Subscription) {})
	}
}
