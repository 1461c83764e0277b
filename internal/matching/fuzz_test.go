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
	bucketOf := func(p message.Predicate) *bucket { return e.postings[e.attrs[p.Attr]].eq[canonicalValue(p.Value)] }
	if ids := bucketOf(symA).ids; !slices.Contains(ids, e.byID["new"]) || bucketOf(symA).pop != 1 {
		t.Fatalf("symbol='A' holds %v at popularity %d: want entry %d, the one live subscription on it", ids, bucketOf(symA).pop, e.byID["new"])
	}
	if ids := bucketOf(date).ids; !slices.Equal(ids, []int32{e.byID["tie"]}) {
		t.Fatalf("date bucket holds %v: want entry %d, posted under the first of its two unseen values", ids, e.byID["tie"])
	}
}

// FuzzMatchEquivalence decodes its input as a script — a table, the churn
// on it and the publications matched against it — and holds the engine to
// brute force after every step.
func FuzzMatchEquivalence(f *testing.F) {
	for _, c := range accessCases {
		f.Add(slices.Concat(c.script...))
	}
	f.Fuzz(func(t *testing.T, script []byte) { newHarness(t).run(script) })
}
