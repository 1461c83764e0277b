package matching

import (
	"fmt"
	"slices"
	"testing"

	"github.com/greenps/greenps/internal/message"
)

const (
	eq = message.OpEq
	gt = message.OpGt
)

// accessCases are the situations the choice of one access predicate per
// subscription creates, as scripts: each is a test of its own in
// TestAccessChoiceCases and a seed of FuzzMatchEquivalence. want is the
// match set of the script's last publication.
var accessCases = []struct {
	name   string
	script [][]byte
	want   []string
}{
	{"equality on NaN never matches, NaN published or not", [][]byte{
		sPublish(sAttr(aLow, vOne)),
		sAdd(sPred(aLow, eq, vNaN)), sAdd(sPred(aLow, eq, vNaN), sPred(aSymbol, eq, vA)),
		sPublish(sAttr(aLow, vNaN), sAttr(aSymbol, vA))}, nil},
	{"equality on an invalid-kind value never matches", [][]byte{
		sAdd(sPred(aLow, eq, vBadKind)), sAdd(sPred(aLow, eq, vZeroVal), sPred(aSymbol, eq, vA)), sAdd(sPred(aSymbol, eq, vA)),
		sPublish(sAttr(aLow, vBadKind), sAttr(aSymbol, vA)),
		sPublish(sAttr(aLow, vZeroVal), sAttr(aSymbol, vA))}, []string{"s002"}},
	{"+0 and -0 are one equality class", [][]byte{
		sAdd(sPred(aLow, eq, vZero)), sAdd(sPred(aLow, eq, vNegZero)), sAdd(sPred(aLow, eq, vNegZero), sPred(aLow, message.OpGe, vZero)),
		sPublish(sAttr(aLow, vZero)), sPublish(sAttr(aLow, vNegZero))}, []string{"s000", "s001", "s002"}},
	{"two equalities on one attribute, different values", [][]byte{
		sAdd(sPred(aSymbol, eq, vA), sPred(aSymbol, eq, vB)), sAdd(sPred(aSymbol, eq, vB), sPred(aSymbol, eq, vA)),
		sPublish(sAttr(aSymbol, vB)), sPublish(sAttr(aSymbol, vA))}, nil},
	{"two equalities on one attribute, same value", [][]byte{
		sAdd(sPred(aSymbol, eq, vA), sPred(aSymbol, eq, vA)),
		sPublish(sAttr(aSymbol, vB)), sPublish(sAttr(aSymbol, vA))}, []string{"s000"}},
	{"equality on an attribute the publication lacks", [][]byte{
		sAdd(sPred(aClass, eq, vA), sPred(aSymbol, eq, vB)), sAdd(sPred(aSymbol, eq, vB), sPred(aClass, eq, vA)), sAdd(sPred(aClass, eq, vA)),
		sPublish(sAttr(aSymbol, vB)), sPublish(sAttr(aClass, vA))}, []string{"s002"}},
	{"a range pair on one attribute", [][]byte{
		sAdd(sPred(aLow, gt, vZero), sPred(aLow, message.OpLt, vTwo)),
		sPublish(sAttr(aLow, vZero)), sPublish(sAttr(aLow, vTwo)), sPublish(sAttr(aLow, vA)), sPublish(sAttr(aLow, vOne))}, []string{"s000"}},
	{"!=, prefix and isPresent as the only predicate", [][]byte{
		sAdd(sPred(aSymbol, message.OpNeq, vA)), sAdd(sPred(aSymbol, message.OpPrefix, vA)), sAdd(sPred(aSymbol, message.OpPresent, vZero)),
		sPublish(sAttr(aLow, vOne)), sPublish(sAttr(aSymbol, vA)), sPublish(sAttr(aSymbol, vOne)),
		sPublish(sAttr(aSymbol, vAB))}, []string{"s000", "s001", "s002"}},
	{"an attribute first interned after matching has begun", [][]byte{
		sAdd(sPred(aSymbol, eq, vA)), sPublish(sAttr(aSymbol, vA), sAttr(aDate, vB)),
		sAdd(sPred(aSymbol, eq, vA), sPred(aDate, eq, vB)), sAdd(sPred(aDate, message.OpPrefix, vEmpty)),
		sAdd(sPred(aSymbol, eq, vA), sPred(aLow, gt, vOne))}, []string{"s000", "s001", "s002"}},
	{"popularity after remove and compact", [][]byte{
		sPublish(sAttr(aClass, vA), sAttr(aSymbol, vA)), sPublish(sAttr(aClass, vA), sAttr(aSymbol, vB)),
		sAdd(sPred(aClass, eq, vA), sPred(aSymbol, eq, vA)), sAdd(sPred(aClass, eq, vA), sPred(aSymbol, eq, vA)),
		sAdd(sPred(aClass, eq, vA), sPred(aSymbol, eq, vB)), sRemove(0), sRemove(0),
		sAdd(sPred(aClass, eq, vA), sPred(aSymbol, eq, vA)), {opCompact},
		sAdd(sPred(aSymbol, eq, vB), sPred(aClass, eq, vA))}, []string{"s002", "s004"}},
	{"a publication carrying more attributes than the engine indexes", [][]byte{
		sAdd(sPred(aSymbol, eq, vA)), sAdd(sPred(aSymbol, message.OpPrefix, vA), sPred(aLow, gt, vZero)),
		sPublish(sAttr(aClass, vA), sAttr(aDate, vB), sAttr(aLow, vOne)),
		sPublish(sAttr(aClass, vA), sAttr(aSymbol, vA), sAttr(aLow, vOne), sAttr(aDate, vB))}, []string{"s000", "s001"}},
	{"a publication carrying fewer attributes than the engine indexes", [][]byte{
		sAdd(sPred(aClass, eq, vA)), sAdd(sPred(aSymbol, eq, vA), sPred(aLow, gt, vZero)),
		sAdd(sPred(aDate, message.OpPresent, vZero)), sAdd(sPred(aSymbol, message.OpPrefix, vEmpty)),
		sPublish(sAttr(aSymbol, vA))}, []string{"s003"}},
	{"the name list after compact", [][]byte{
		sAdd(sPred(aDate, eq, vA)), sAdd(sPred(aSymbol, eq, vB)), sRemove(0), {opCompact},
		sPublish(sAttr(aDate, vA), sAttr(aLow, vOne), sAttr(aSymbol, vB), sAttr(aClass, vA)),
		sAdd(sPred(aLow, gt, vZero))}, []string{"s001", "s002"}},
	{"a name interned between two publications", [][]byte{
		sAdd(sPred(aSymbol, eq, vA)), sPublish(sAttr(aSymbol, vA), sAttr(aDate, vB), sAttr(aLow, vOne)),
		sAdd(sPred(aDate, eq, vB)),
		sPublish(sAttr(aSymbol, vA), sAttr(aDate, vB), sAttr(aClass, vA))}, []string{"s000", "s001"}},
	{"no predicates, and removal of what is not there", [][]byte{
		sAdd(), sPublish(), sRemove(5), sRemove(0), sAdd(), sPublish(sAttr(aLow, vTrue), sAttr(aDate, vFalse))}, []string{"s001"}},
}

// TestAccessChoiceCases runs every access case, checked against brute
// force at each step and against the expectation written beside it at
// the end.
func TestAccessChoiceCases(t *testing.T) {
	for _, c := range accessCases {
		t.Run(c.name, func(t *testing.T) {
			if got := newHarness(t).run(slices.Concat(c.script...)); !slices.Equal(got, c.want) {
				t.Fatalf("last publication matched %v, want %v", got, c.want)
			}
		})
	}
}

// TestPopularityFollowsRemove pins the access choice to live popularity:
// once every symbol='A' subscription is removed, a new [class, symbol='A']
// subscription is posted under symbol although class='STOCK' came first;
// between equally popular values the first predicate wins.
func TestPopularityFollowsRemove(t *testing.T) {
	e := NewCountingEngine()
	class := message.Pred("class", eq, message.String("STOCK"))
	symA := message.Pred("symbol", eq, message.String("A"))
	symB := message.Pred("symbol", eq, message.String("B"))
	date := message.Pred("date", eq, message.String("day-1"))
	for i, preds := range [][]message.Predicate{{class, symB}, {symA}, {symA}, {symA, class}} {
		mustAdd(t, e, fmt.Sprintf("old%d", i), preds...)
	}
	for _, id := range []string{"old1", "old2", "old3"} {
		if err := e.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(t, e, "new", class, symA)
	mustAdd(t, e, "tie", date, message.Pred("symbol", eq, message.String("Z")))
	bucketOf := func(p message.Predicate) *bucket { return e.bucket(e.attrs[p.Attr], p, false) }
	if ids := bucketOf(symA).ids; !slices.Contains(ids, e.byID["new"]) || bucketOf(symA).pop != 1 {
		t.Fatalf("symbol='A' holds %v at popularity %d: want entry %d, the one live subscription on it", ids, bucketOf(symA).pop, e.byID["new"])
	}
	if ids := bucketOf(date).ids; !slices.Equal(ids, []int32{e.byID["tie"]}) {
		t.Fatalf("date bucket holds %v: want entry %d, posted under the first of its two unseen values", ids, e.byID["tie"])
	}
}

// TestReexamineLeavesClass holds re-examination to its purpose on the
// table workload.Build emits: the SYM00 subscriptions, posted under
// class='STOCK' while their symbol was as popular, leave it once the class
// outgrows the symbol, so that no live subscription is posted there after
// the table is built, nor after Compact rebuilds it.
func TestReexamineLeavesClass(t *testing.T) {
	e, _, _ := buildTable(t, slices.IndexFunc(benchTables, func(b benchTable) bool { return b.name == "paper8000grouped" }))
	class := message.Pred("class", eq, message.String("STOCK"))
	for _, when := range []string{"built", "compacted"} {
		b := e.bucket(e.attrs[class.Attr], class, false)
		for _, slot := range b.ids {
			if sub := e.entries[slot].sub; sub != nil {
				t.Fatalf("%s: %s is posted under class='STOCK' at popularity %d", when, sub, b.pop)
			}
		}
		e.Compact()
	}
}

// checkPosted holds every posting's posted count to the slots its classes
// hold, tombstones included.
func checkPosted(t *testing.T, e *CountingEngine, when string) {
	t.Helper()
	for a := range e.postings {
		post := &e.postings[a]
		n := 0
		for _, b := range post.str {
			n += len(b.ids)
		}
		for _, b := range post.num {
			n += len(b.ids)
		}
		for _, b := range []*bucket{post.yes, post.no} {
			if b != nil {
				n += len(b.ids)
			}
		}
		if post.posted != n {
			t.Fatalf("%s: attribute %q counts %d posted slots, its classes hold %d", when, e.names[a], post.posted, n)
		}
	}
}

// TestPostedCounts holds the posted count matchOne skips class lookups on
// to the classes it counts: on the grouped table, where re-examination
// leaves the class attribute with nothing posted, built and compacted; and
// after the churn scripts, which post, move, tombstone and compact.
func TestPostedCounts(t *testing.T) {
	e, _, _ := buildTable(t, slices.IndexFunc(benchTables, func(b benchTable) bool { return b.name == "paper8000grouped" }))
	for _, when := range []string{"built", "compacted"} {
		checkPosted(t, e, when)
		if n := e.postings[e.attrs["class"]].posted; n != 0 {
			t.Fatalf("%s: the class attribute counts %d posted slots, want 0", when, n)
		}
		e.Compact()
	}
	scripts := [][]byte{reexamineScript}
	for _, c := range accessCases {
		scripts = append(scripts, slices.Concat(c.script...))
	}
	for i, script := range scripts {
		h := newHarness(t)
		h.run(script)
		checkPosted(t, h.e, fmt.Sprintf("script %d", i))
	}
}

// reexamineScript crosses the re-examination floor. The first [class=A,
// symbol=A] subscriptions tie and are posted under the class, one with
// its class predicate second and one stating symbol=A twice, and one of
// them is removed. The eighth class predicate re-examines the class: the
// four live ones move to symbol=A, the tombstone stays, and a publication
// on symbol=A without the class must then verify the class predicate
// each of them carries afresh.
var reexamineScript = slices.Concat(
	sAdd(sPred(aClass, eq, vA), sPred(aSymbol, eq, vA)), sAdd(sPred(aClass, eq, vA), sPred(aLow, gt, vZero), sPred(aSymbol, eq, vA)),
	sAdd(sPred(aClass, eq, vA), sPred(aSymbol, eq, vA), sPred(aSymbol, eq, vA)), sAdd(sPred(aLow, gt, vZero), sPred(aClass, eq, vA), sPred(aSymbol, eq, vA)),
	sAdd(sPred(aClass, eq, vA), sPred(aSymbol, eq, vA)), sAdd(sPred(aClass, eq, vA), sPred(aDate, eq, vA), sPred(aSymbol, eq, vA)),
	sPublish(sAttr(aClass, vA), sAttr(aSymbol, vA), sAttr(aLow, vOne), sAttr(aDate, vA)), sRemove(0),
	sAdd(sPred(aClass, eq, vA), sPred(aSymbol, eq, vB)), sAdd(sPred(aSymbol, eq, vB), sPred(aClass, eq, vA)),
	sPublish(sAttr(aClass, vA), sAttr(aSymbol, vB)), sPublish(sAttr(aSymbol, vA), sAttr(aLow, vOne)),
	sAdd(sPred(aClass, eq, vA), sPred(aSymbol, eq, vA), sPred(aLow, gt, vZero)), []byte{opCompact},
	sPublish(sAttr(aClass, vA), sAttr(aSymbol, vA), sAttr(aLow, vOne)))

// FuzzMatchEquivalence decodes its input as a script — a table, the churn
// on it and the publications matched against it — and holds the engine to
// brute force after every step, through Match and, with the subscriptions
// spread over route groups, through MatchRouted.
func FuzzMatchEquivalence(f *testing.F) {
	for _, c := range accessCases {
		f.Add(slices.Concat(c.script...))
	}
	f.Add(reexamineScript)
	f.Fuzz(func(t *testing.T, script []byte) {
		for _, grouped := range []bool{false, true} {
			h := newHarness(t)
			h.grouped = grouped
			h.run(script)
		}
	})
}
