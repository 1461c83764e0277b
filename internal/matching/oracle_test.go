package matching

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/greenps/greenps/internal/message"
)

// harness holds an engine beside the oracle every equivalence test in this
// package compares it with: Subscription.Matches over every live
// subscription, sharing nothing with the engine but that definition of
// satisfaction.
type harness struct {
	tb   testing.TB
	e    *CountingEngine
	live map[string]*message.Subscription
	// slots and groups hold what each live subscription was added with.
	slots  map[string]int32
	groups map[string]int32
	// grouped puts the k-th added subscription in route group k mod
	// harnessGroups, and check verifies MatchRouted instead of Match.
	grouped bool
	// pubs are the publications the scripts run so far have published.
	pubs []*message.Publication
	adds int
}

// harnessGroups is the number of route groups a grouped harness uses, 0 included.
const harnessGroups = 4

func newHarness(tb testing.TB) *harness {
	return &harness{tb: tb, e: NewCountingEngine(), live: make(map[string]*message.Subscription),
		slots: make(map[string]int32), groups: make(map[string]int32)}
}

// Match returns the IDs of the live subscriptions the publication
// satisfies, through the engine's one-publication match.
func (e *CountingEngine) Match(pub *message.Publication) []string {
	var out []string
	e.matchOne(pub, 0, 0, func(_ int, slot int32) { out = append(out, e.entries[slot].sub.ID) })
	return out
}

// check fails unless the engine's match set for p is the oracle's; it
// returns the set, sorted.
func (h *harness) check(p *message.Publication, when string) []string {
	h.tb.Helper()
	var want []string
	for id, s := range h.live {
		if s.Matches(p) {
			want = append(want, id)
		}
	}
	slices.Sort(want)
	if h.grouped {
		h.checkRouted(p, want, when)
		return want
	}
	got := h.e.Match(p)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		h.tb.Fatalf("%s: pub %v\nengine:      %v\nbrute force: %v", when, p, got, want)
	}
	return got
}

// checkRouted holds MatchRouted to the oracle's match set want under every
// arrival group, one past the last included: every group-0 match is
// emitted, exactly one match of every other group with one, and none of
// the arrival group.
func (h *harness) checkRouted(p *message.Publication, want []string, when string) {
	h.tb.Helper()
	for arrival := int32(0); arrival <= harnessGroups; arrival++ {
		var got, expect []string
		perGroup, expectPerGroup := make(map[int32]int), make(map[int32]int)
		h.e.MatchRouted([]*message.Publication{p}, []int32{arrival}, func(_ int, slot int32) {
			s := h.e.entries[slot].sub
			if !s.Matches(p) {
				h.tb.Fatalf("%s, arrival %d: pub %v emitted non-matching %s", when, arrival, p, s)
			}
			if g := h.groups[s.ID]; g == 0 {
				got = append(got, s.ID)
			} else {
				perGroup[g]++
			}
		})
		for _, id := range want {
			if g := h.groups[id]; g == 0 {
				expect = append(expect, id)
			} else if g != arrival {
				expectPerGroup[g] = 1
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, expect) || !maps.Equal(perGroup, expectPerGroup) {
			h.tb.Fatalf("%s, arrival %d: pub %v\nengine:      %v, per group %v\nbrute force: %v, per group %v",
				when, arrival, p, got, perGroup, expect, expectPerGroup)
		}
	}
}

// checkSlots fails unless every live subscription still sits in the slot
// it was added in.
func (h *harness) checkSlots(when string) {
	h.tb.Helper()
	for id, s := range h.live {
		if slot, ok := h.e.Slot(id); !ok || slot != h.slots[id] || h.e.entries[slot].sub != s {
			h.tb.Fatalf("%s: %s in slot %d (found %v), added in %d", when, id, slot, ok, h.slots[id])
		}
	}
}

// Script opcodes. A script is a byte string: an opcode (mod 4) followed by
// its operands, every operand one byte reduced modulo its alphabet, so any
// byte string is a script and the interesting ones can be written by hand.
const (
	opAdd     byte = iota // n, then n x (attr, op, value): subscribe s<k>, k counting adds
	opRemove              // i: unsubscribe the i-th live subscription in ID order, or a ghost
	opCompact             //
	opPublish             // n, then n x (attr, value): one more publication to check
)

// Operand alphabets of the script language, and names for their indices.
var (
	scriptAttrs = []string{aClass: "class", aSymbol: "symbol", aLow: "low", aDate: "date"}
	// Equality, the operator access choice is about, is drawn as often as the other seven together.
	scriptOps = []message.Op{message.OpEq, message.OpNeq, message.OpLt, message.OpLe, message.OpGt, message.OpGe,
		message.OpPrefix, message.OpPresent, message.OpEq, message.OpEq, message.OpEq, message.OpEq, message.OpEq, message.OpEq}
	scriptValues = []message.Value{
		vZero: message.Number(0), vNegZero: message.Number(math.Copysign(0, -1)),
		vOne: message.Number(1), vTwo: message.Number(2), vNaN: message.Number(math.NaN()),
		vEmpty: message.String(""), vA: message.String("A"), vAB: message.String("AB"), vB: message.String("B"),
		vTrue: message.Bool(true), vFalse: message.Bool(false),
		vZeroVal: {}, vBadKind: {Kind: 99, Str: "A", Num: 1},
	}
)

const (
	aClass, aSymbol, aLow, aDate byte = 0, 1, 2, 3

	vZero, vNegZero, vOne, vTwo, vNaN, vEmpty, vA, vAB, vB, vTrue, vFalse, vZeroVal, vBadKind byte = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12
)

// sPred and sAttr spell one predicate and one publication attribute of a
// hand-written script; sAdd, sPublish and sRemove assemble its operations.
func sPred(attr byte, op message.Op, value byte) []byte {
	return []byte{attr, byte(slices.Index(scriptOps, op)), value}
}
func sAttr(attr, value byte) []byte   { return []byte{attr, value} }
func sAdd(preds ...[]byte) []byte     { return operation(opAdd, preds) }
func sPublish(attrs ...[]byte) []byte { return operation(opPublish, attrs) }
func sRemove(i byte) []byte           { return []byte{opRemove, i} }
func operation(code byte, operands [][]byte) []byte {
	return append([]byte{code, byte(len(operands))}, slices.Concat(operands...)...)
}

// maxScriptPubs bounds the publications re-checked after every step.
const maxScriptPubs = 8

// run executes a script. After every operation it compares the engine
// with the oracle on each of the last maxScriptPubs publications, so an
// add, a remove or a Compact that changes what an earlier publication
// matches is caught on the step that did it. It returns the final match
// set of the last publication.
func (h *harness) run(script []byte) (last []string) {
	h.tb.Helper()
	next := func(mod int) int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b) % mod
	}
	for step := 0; len(script) > 0; step++ {
		var what string
		switch byte(next(4)) {
		case opAdd:
			preds := make([]message.Predicate, next(5))
			for i := range preds {
				preds[i] = message.Pred(scriptAttrs[next(len(scriptAttrs))],
					scriptOps[next(len(scriptOps))], scriptValues[next(len(scriptValues))])
			}
			sub := message.NewSubscription(fmt.Sprintf("s%03d", h.adds), "cl", preds)
			var group int32
			if h.grouped {
				group = int32(h.adds % harnessGroups)
			}
			h.adds++
			slot, err := h.e.AddInGroup(sub, group)
			if err != nil {
				h.tb.Fatal(err)
			}
			if err := h.e.Add(sub); err == nil {
				h.tb.Fatalf("step %d: duplicate %s accepted", step, sub.ID)
			}
			h.live[sub.ID], h.slots[sub.ID], h.groups[sub.ID] = sub, slot, group
			what = "add " + sub.String()
		case opRemove:
			ids := make([]string, 0, len(h.live))
			for id := range h.live {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			id := "ghost"
			if i := next(len(ids) + 1); i < len(ids) {
				id = ids[i]
			}
			if err := h.e.Remove(id); (err == nil) != (h.live[id] != nil) {
				h.tb.Fatalf("step %d: Remove(%s) = %v", step, id, err)
			}
			delete(h.live, id)
			delete(h.slots, id)
			delete(h.groups, id)
			what = "remove " + id
		case opCompact:
			h.e.Compact()
			what = "compact"
		case opPublish:
			attrs := make(map[string]message.Value)
			for i, n := 0, next(5); i < n; i++ {
				attrs[scriptAttrs[next(len(scriptAttrs))]] = scriptValues[next(len(scriptValues))]
			}
			h.pubs = append(h.pubs, message.NewPublication("adv", len(h.pubs), attrs))
			what = "publish"
		}
		if h.e.Len() != len(h.live) {
			h.tb.Fatalf("step %d (%s): Len = %d, want %d", step, what, h.e.Len(), len(h.live))
		}
		h.checkSlots(fmt.Sprintf("step %d (%s)", step, what))
		for _, p := range h.pubs[max(0, len(h.pubs)-maxScriptPubs):] {
			last = h.check(p, fmt.Sprintf("step %d (%s)", step, what))
		}
	}
	return last
}

// mustAdd subscribes id with the given predicates.
func mustAdd(tb testing.TB, e *CountingEngine, id string, preds ...message.Predicate) *message.Subscription {
	tb.Helper()
	sub := message.NewSubscription(id, "c", preds)
	if err := e.Add(sub); err != nil {
		tb.Fatalf("add: %v", err)
	}
	return sub
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
	e := NewCountingEngine()
	class := message.Pred("class", message.OpEq, message.String("STOCK"))
	yhoo := message.Pred("symbol", message.OpEq, message.String("YHOO"))
	mustAdd(t, e, "s1", class, yhoo)
	mustAdd(t, e, "s2", class, yhoo, message.Pred("low", message.OpLt, message.Number(19)))
	mustAdd(t, e, "s3", message.Pred("symbol", message.OpEq, message.String("GOOG")))
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
	e := NewCountingEngine()
	if err := e.Add(mustAdd(t, e, "dup")); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

func TestRemoveUnknownRejected(t *testing.T) {
	e := NewCountingEngine()
	if err := e.Remove("ghost"); err == nil {
		t.Fatal("removing unknown subscription must fail")
	}
}

func TestZeroPredicateMatchesEverything(t *testing.T) {
	e := NewCountingEngine()
	mustAdd(t, e, "all")
	if got := e.Match(pub("YHOO", 1, 1)); len(got) != 1 || got[0] != "all" {
		t.Fatalf("zero-predicate sub missed: %v", got)
	}
}

func TestMultiplePredicatesSameAttribute(t *testing.T) {
	e := NewCountingEngine()
	mustAdd(t, e, "range", message.Pred("low", message.OpGt, message.Number(10)), message.Pred("low", message.OpLt, message.Number(20)))
	if got := e.Match(pub("X", 15, 1)); len(got) != 1 {
		t.Fatalf("in-range value missed: %v", got)
	}
	if got := e.Match(pub("X", 25, 1)); len(got) != 0 {
		t.Fatalf("out-of-range value matched: %v", got)
	}
}

func TestCompactPreservesLiveSubscriptions(t *testing.T) {
	e := NewCountingEngine()
	for i := 0; i < 10; i++ {
		mustAdd(t, e, fmt.Sprintf("s%d", i), message.Pred("symbol", message.OpEq, message.String("YHOO")))
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
	e := NewCountingEngine()
	if s := mustAdd(t, e, "s1"); e.Get("s1") != s {
		t.Fatal("Get returned wrong subscription")
	}
	if e.Get("nope") != nil {
		t.Fatal("Get of unknown must be nil")
	}
	if len(e.Subscriptions()) != 1 {
		t.Fatal("Subscriptions() wrong length")
	}
}

// TestQuickMatchesBruteForce holds the engine to the oracle on random
// scripts.
func TestQuickMatchesBruteForce(t *testing.T) {
	f := func(script []byte) bool {
		newHarness(t).run(script)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
