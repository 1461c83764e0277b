package message

import (
	"math"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
)

func stockPub(seq int, symbol string, low float64) *Publication {
	return NewPublication("ADV-"+symbol, seq, map[string]Value{
		"class":  String("STOCK"),
		"symbol": String(symbol),
		"low":    Number(low),
	})
}

func TestValueEqualAndCompare(t *testing.T) {
	if !String("a").Equal(String("a")) || String("a").Equal(String("b")) {
		t.Error("string equality broken")
	}
	if !Number(1.5).Equal(Number(1.5)) || Number(1.5).Equal(Number(2)) {
		t.Error("number equality broken")
	}
	if String("a").Equal(Number(1)) {
		t.Error("cross-kind equality must be false")
	}
	if c, ok := Number(1).Compare(Number(2)); !ok || c != -1 {
		t.Error("number compare broken")
	}
	if c, ok := String("b").Compare(String("a")); !ok || c != 1 {
		t.Error("string compare broken")
	}
	if _, ok := Bool(true).Compare(Bool(false)); ok {
		t.Error("bools must be unordered")
	}
	if _, ok := String("a").Compare(Number(1)); ok {
		t.Error("cross-kind compare must fail")
	}
}

func TestPredicateMatches(t *testing.T) {
	cases := []struct {
		pred    Predicate
		val     Value
		present bool
		want    bool
	}{
		{Pred("s", OpEq, String("YHOO")), String("YHOO"), true, true},
		{Pred("s", OpEq, String("YHOO")), String("GOOG"), true, false},
		{Pred("s", OpEq, String("YHOO")), Value{}, false, false},
		{Pred("n", OpLt, Number(10)), Number(9), true, true},
		{Pred("n", OpLt, Number(10)), Number(10), true, false},
		{Pred("n", OpLe, Number(10)), Number(10), true, true},
		{Pred("n", OpGt, Number(10)), Number(11), true, true},
		{Pred("n", OpGe, Number(10)), Number(10), true, true},
		{Pred("n", OpNeq, Number(10)), Number(11), true, true},
		{Pred("n", OpNeq, Number(10)), Number(10), true, false},
		{Pred("n", OpNeq, Number(10)), String("x"), true, false},
		{Pred("s", OpPrefix, String("YH")), String("YHOO"), true, true},
		{Pred("s", OpPrefix, String("YH")), String("GOOG"), true, false},
		{Pred("s", OpPresent, Value{}), String("anything"), true, true},
		{Pred("s", OpPresent, Value{}), Value{}, false, false},
		{Pred("n", OpLt, Number(10)), String("str"), true, false},
	}
	for _, tc := range cases {
		if got := tc.pred.Matches(tc.val, tc.present); got != tc.want {
			t.Errorf("%v.Matches(%v, %v) = %v, want %v", tc.pred, tc.val, tc.present, got, tc.want)
		}
	}
}

func TestSubscriptionMatches(t *testing.T) {
	sub := NewSubscription("s1", "c1", []Predicate{
		Pred("class", OpEq, String("STOCK")),
		Pred("symbol", OpEq, String("YHOO")),
		Pred("low", OpLt, Number(19)),
	})
	if !sub.Matches(stockPub(1, "YHOO", 18.5)) {
		t.Error("matching publication rejected")
	}
	if sub.Matches(stockPub(1, "YHOO", 19.5)) {
		t.Error("low >= 19 must not match")
	}
	if sub.Matches(stockPub(1, "GOOG", 18.5)) {
		t.Error("wrong symbol must not match")
	}
	// Missing attribute fails the predicate.
	p := NewPublication("ADV-YHOO", 1, map[string]Value{
		"class":  String("STOCK"),
		"symbol": String("YHOO"),
	})
	if sub.Matches(p) {
		t.Error("publication missing 'low' must not match")
	}
}

func TestSubscriptionKeyOrderIndependent(t *testing.T) {
	a := NewSubscription("a", "c", []Predicate{
		Pred("class", OpEq, String("STOCK")),
		Pred("low", OpLt, Number(19)),
	})
	b := NewSubscription("b", "c", []Predicate{
		Pred("low", OpLt, Number(19)),
		Pred("class", OpEq, String("STOCK")),
	})
	if a.Key() != b.Key() {
		t.Error("Key must be independent of predicate order")
	}
}

func TestPredicatesIntersect(t *testing.T) {
	cases := []struct {
		a, b Predicate
		want bool
	}{
		{Pred("x", OpEq, String("A")), Pred("x", OpEq, String("A")), true},
		{Pred("x", OpEq, String("A")), Pred("x", OpEq, String("B")), false},
		{Pred("x", OpLt, Number(5)), Pred("x", OpGt, Number(10)), false},
		{Pred("x", OpLt, Number(10)), Pred("x", OpGt, Number(5)), true},
		{Pred("x", OpLe, Number(5)), Pred("x", OpGe, Number(5)), true},
		{Pred("x", OpLt, Number(5)), Pred("x", OpGe, Number(5)), false},
		{Pred("x", OpEq, Number(7)), Pred("x", OpLt, Number(5)), false},
		{Pred("x", OpEq, Number(3)), Pred("x", OpLt, Number(5)), true},
		{Pred("x", OpEq, String("A")), Pred("x", OpNeq, String("A")), false},
		{Pred("x", OpNeq, String("A")), Pred("x", OpEq, String("B")), true},
		{Pred("x", OpPrefix, String("YH")), Pred("x", OpEq, String("YHOO")), true},
		{Pred("x", OpEq, String("GOOG")), Pred("x", OpPrefix, String("YH")), false},
		// Conservative cases must say true.
		{Pred("x", OpNeq, Number(1)), Pred("x", OpNeq, Number(2)), true},
		{Pred("x", OpPresent, Value{}), Pred("x", OpEq, Number(1)), true},
	}
	for _, tc := range cases {
		if got := PredicatesIntersect(tc.a, tc.b); got != tc.want {
			t.Errorf("PredicatesIntersect(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		// Symmetry for interval cases.
		if got := PredicatesIntersect(tc.b, tc.a); got != tc.want {
			t.Errorf("PredicatesIntersect(%v, %v) = %v, want %v (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
}

func TestAdvertisementIntersectsSubscription(t *testing.T) {
	adv := NewAdvertisement("a1", "p1", []Predicate{
		Pred("class", OpEq, String("STOCK")),
		Pred("symbol", OpEq, String("YHOO")),
		Pred("low", OpGe, Number(0)),
	})
	match := NewSubscription("s1", "c1", []Predicate{
		Pred("class", OpEq, String("STOCK")),
		Pred("symbol", OpEq, String("YHOO")),
		Pred("low", OpLt, Number(19)),
	})
	if !adv.IntersectsSubscription(match) {
		t.Error("overlapping subscription rejected")
	}
	other := NewSubscription("s2", "c1", []Predicate{
		Pred("class", OpEq, String("STOCK")),
		Pred("symbol", OpEq, String("GOOG")),
	})
	if adv.IntersectsSubscription(other) {
		t.Error("disjoint symbol must not intersect")
	}
	// Attribute the advertisement doesn't mention: conservative true.
	extra := NewSubscription("s3", "c1", []Predicate{
		Pred("class", OpEq, String("STOCK")),
		Pred("volume", OpGt, Number(1000)),
	})
	if !adv.IntersectsSubscription(extra) {
		t.Error("unmentioned attribute must be conservative")
	}
}

func TestMatchingDelayFn(t *testing.T) {
	fn := MatchingDelayFn{PerSub: 0.001, Base: 0.01}
	if d := fn.Delay(100); d != 0.11 {
		t.Errorf("Delay(100) = %v, want 0.11", d)
	}
	if r := fn.MaxRate(100); r < 9.0 || r > 9.1 {
		t.Errorf("MaxRate(100) = %v, want ~9.09", r)
	}
	if fn.Delay(-5) != fn.Delay(0) {
		t.Error("negative n must clamp to 0")
	}
	if !math.IsInf((MatchingDelayFn{}).MaxRate(10), 1) {
		t.Error("zero delay function must report unbounded max rate")
	}
}

func TestEnvelopeValidate(t *testing.T) {
	good := &Envelope{Kind: KindPublication, Pub: stockPub(1, "YHOO", 1)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid envelope rejected: %v", err)
	}
	bad := []*Envelope{
		{Kind: KindPublication},
		{Kind: KindSubscription},
		{Kind: KindAdvertisement},
		{Kind: KindUnsubscription},
		{Kind: KindUnadvertisement},
		{Kind: KindBIR},
		{Kind: KindBIA},
		{Kind: Kind(99)},
	}
	for _, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("invalid envelope %v accepted", e.Kind)
		}
	}
}

func TestEncodeDecodePublication(t *testing.T) {
	e := &Envelope{Kind: KindPublication, Pub: stockPub(42, "YHOO", 18.37)}
	data, err := Encode(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Kind != KindPublication || got.Pub.Seq != 42 || got.Pub.AdvID != "ADV-YHOO" {
		t.Fatalf("round trip mismatch: %+v", got.Pub)
	}
	if !got.Pub.Attrs["low"].Equal(Number(18.37)) {
		t.Fatalf("attribute lost: %v", got.Pub.Attrs)
	}
}

func TestEncodeDecodeSubscription(t *testing.T) {
	sub := NewSubscription("s1", "c1", []Predicate{
		Pred("class", OpEq, String("STOCK")),
		Pred("low", OpLt, Number(19)),
	})
	data, err := Encode(&Envelope{Kind: KindSubscription, Sub: sub})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Sub.Key() != sub.Key() {
		t.Fatal("subscription predicates lost in round trip")
	}
	if !got.Sub.Matches(stockPub(1, "X", 18)) {
		t.Fatal("decoded subscription does not match")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Decode([]byte(`{"kind":1}`)); err == nil {
		t.Error("kind/payload mismatch accepted")
	}
}

// TestDecodeRejectsHostileBIA sends the planner a BIA whose profile images
// break the vector invariants — a window wider than the capacity, which used
// to panic the first AndCount on it, set bits past or below the window, which
// inflate the load estimate, and a word count other than the capacity's grid
// size — and requires an error from Decode and from UnpackProfiles, never a
// panic or a profile.
func TestDecodeRejectsHostileBIA(t *testing.T) {
	full := bitvector.New(128)
	for id := 0; id < 100; id++ {
		full.Set(id)
	}
	overfull := full.Snapshot()
	overfull.First, overfull.Last = 7, 16
	stale := full.Snapshot()
	stale.First = 50
	for name, snap := range map[string]bitvector.VectorSnapshot{
		"window wider than capacity": {First: 0, Last: 5000, Cap: 64, Words: bitvector.New(64).Snapshot().Words},
		"bits past the window":       overfull,
		"bits below the window":      stale,
		// One 64-bit word for capacity 64; the grid layout carries two.
		"words of the capacity alone": {First: 0, Last: -1, Cap: 64, Words: "AAAAAAAAAAA="},
	} {
		info := BrokerInfo{ID: "B1", Subscriptions: []SubscriptionInfo{{
			Sub: NewSubscription("s1", "c1", []Predicate{Pred("class", OpEq, String("STOCK"))}),
			ProfileData: &ProfileWire{Snapshot: bitvector.ProfileSnapshot{
				Cap: snap.Cap, Vectors: map[string]bitvector.VectorSnapshot{"ADV-1": snap},
			}},
		}}}
		data, err := Encode(&Envelope{Kind: KindBIA, BIA: &BIA{RequestID: "r1", Infos: []BrokerInfo{info}}})
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if env, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted the BIA: %+v", name, env.BIA.Infos[0].Subscriptions[0].Profile)
		} else if !strings.Contains(err.Error(), "s1") || !strings.Contains(err.Error(), "ADV-1") {
			t.Errorf("%s: error %q does not name the subscription and publisher", name, err)
		}
		if err := info.UnpackProfiles(); err == nil || info.Subscriptions[0].Profile != nil {
			t.Errorf("%s: UnpackProfiles = %v, profile %v; want an error and no profile", name, err, info.Subscriptions[0].Profile)
		}
	}
}

func TestPublicationClone(t *testing.T) {
	p := stockPub(1, "YHOO", 18)
	p.Hops = 3
	c := p.Clone()
	c.Hops = 7
	c.Attrs["low"] = Number(99)
	if p.Hops != 3 {
		t.Error("clone hop write leaked")
	}
	if !p.Attrs["low"].Equal(Number(18)) {
		t.Error("clone attr write leaked")
	}
}

func TestEncodedSizes(t *testing.T) {
	p := stockPub(1, "YHOO", 18)
	if p.EncodedSize() <= 0 {
		t.Error("publication size must be positive")
	}
	e := &Envelope{Kind: KindPublication, Pub: p}
	if e.EncodedSize() <= p.EncodedSize() {
		t.Error("envelope overhead missing")
	}
	if (&Envelope{Kind: KindBIR, BIR: &BIR{RequestID: "r"}}).EncodedSize() != 64 {
		t.Error("control message flat size expected")
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	ops := []Op{OpEq, OpNeq, OpLt, OpLe, OpGt, OpGe, OpPrefix, OpPresent}
	for _, op := range ops {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Errorf("ParseOp(%q) = %v, %v", op.String(), got, err)
		}
	}
	if _, err := ParseOp("~~"); err == nil {
		t.Error("unknown op accepted")
	}
}
