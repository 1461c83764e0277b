package message

import (
	"testing"
)

func TestParsePredicates(t *testing.T) {
	preds, err := ParsePredicates("[class,=,'STOCK'],[symbol,=,'YHOO'],[low,<,19.5]")
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 {
		t.Fatalf("got %d predicates", len(preds))
	}
	if preds[0].Attr != "class" || preds[0].Op != OpEq || !preds[0].Value.Equal(String("STOCK")) {
		t.Fatalf("pred[0] = %v", preds[0])
	}
	if preds[2].Op != OpLt || !preds[2].Value.Equal(Number(19.5)) {
		t.Fatalf("pred[2] = %v", preds[2])
	}
}

func TestParsePredicatesAllForms(t *testing.T) {
	cases := []struct {
		in   string
		want Predicate
	}{
		{"[a,=,'x']", Pred("a", OpEq, String("x"))},
		{"[a,!=,'x']", Pred("a", OpNeq, String("x"))},
		{"[a,<=,5]", Pred("a", OpLe, Number(5))},
		{"[a,>=,5]", Pred("a", OpGe, Number(5))},
		{"[a,>,5]", Pred("a", OpGt, Number(5))},
		{"[a,=,true]", Pred("a", OpEq, Bool(true))},
		{"[a,=,false]", Pred("a", OpEq, Bool(false))},
		{"[a,str-prefix,'YH']", Pred("a", OpPrefix, String("YH"))},
		{"[a,isPresent]", Pred("a", OpPresent, Value{})},
		{"[a,=,'has,comma']", Pred("a", OpEq, String("has,comma"))},
		{"[symbol,=,'A]B']", Pred("symbol", OpEq, String("A]B"))}, // ']' inside quotes
		{"[a,=,']'],[b,=,1]", Pred("a", OpEq, String("]"))},
		{" [a,=,1] , [b,=,2] ", Pred("a", OpEq, Number(1))}, // whitespace tolerated
	}
	for _, tc := range cases {
		preds, err := ParsePredicates(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if preds[0] != tc.want {
			t.Errorf("%q: got %v, want %v", tc.in, preds[0], tc.want)
		}
	}
}

func TestParsePredicatesEmpty(t *testing.T) {
	preds, err := ParsePredicates("   ")
	if err != nil || preds != nil {
		t.Fatalf("empty filter: %v, %v", preds, err)
	}
}

func TestParsePredicatesErrors(t *testing.T) {
	for _, in := range []string{
		"[a,=,'x'",                // unterminated
		"a,=,'x']",                // missing bracket
		"[a]",                     // too few parts
		"[a,=,one,two]",           // too many parts
		"[a,~~,'x']",              // unknown op
		"[a,=,not a lit]",         // bad value
		"[a,isPresent,'x',extra]", // malformed
		"[a,=,'x]",                // quote never closed
		"[low,<,NaN]",             // non-finite numbers: Encode refuses them
		"[low,<,Inf]",
		"[low,>,-infinity]",
	} {
		if _, err := ParsePredicates(in); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestParsePredicatesRoundTripsWithString(t *testing.T) {
	sub := NewSubscription("s", "c", []Predicate{
		Pred("class", OpEq, String("STOCK")),
		Pred("low", OpLt, Number(19)),
	})
	// Render each predicate and re-parse.
	for _, p := range sub.Predicates {
		got, err := ParsePredicates(p.String())
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if got[0] != p {
			t.Fatalf("round trip %v -> %v", p, got[0])
		}
	}
}
