package message

import (
	"encoding/json"
	"math"
	"reflect"
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

// TestEnvelopeCarriesOnePayload holds Encode and Decode to the envelope's
// invariant: exactly one payload field, the one its kind names. Extra
// fields beside the right one are refused in both directions, so the
// publication writer never has to write a second payload.
func TestEnvelopeCarriesOnePayload(t *testing.T) {
	pub := stockPub(1, "YHOO", 1)
	sub := NewSubscription("s1", "c1", []Predicate{Pred("class", OpEq, String("STOCK"))})
	adv := NewAdvertisement("a1", "p1", nil)
	for _, e := range []*Envelope{
		{Kind: KindPublication, Pub: pub, Sub: sub},
		{Kind: KindPublication, Pub: pub, BIR: &BIR{RequestID: "r"}},
		{Kind: KindPublication, Pub: pub, UnsubID: "s1"},
		{Kind: KindSubscription, Sub: sub, Adv: adv},
		{Kind: KindUnadvertisement, UnadvID: "a1", Adv: adv},
		{Kind: KindBIR, BIR: &BIR{RequestID: "r"}, BIA: &BIA{RequestID: "r"}},
	} {
		if err := e.Validate(); err == nil {
			t.Errorf("%v envelope with two payloads validated", e.Kind)
		}
		if data, err := Encode(e); err == nil {
			t.Errorf("Encode accepted a %v envelope with two payloads: %s", e.Kind, data)
		}
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Decode(data); err == nil {
			t.Errorf("Decode accepted %s as %+v", data, got)
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
	if got.Sub.String() != sub.String() {
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

// TestBIARoundTrip sends a nil, an empty and a populated profile through
// Encode and Decode: each comes back as it went in, and the populated one
// travels exactly once, as its snapshot.
func TestBIARoundTrip(t *testing.T) {
	populated := bitvector.NewProfile(96)
	for i := 0; i < 50; i += 3 {
		populated.Record("ADV-1", i)
	}
	populated.Record("ADV-2", 7)
	sub := func(id string) *Subscription {
		return NewSubscription(id, "c1", []Predicate{Pred("class", OpEq, String("STOCK"))})
	}
	info := BrokerInfo{ID: "B1", URL: "127.0.0.1:1", Subscriptions: []SubscriptionInfo{
		{Sub: sub("nil")},
		{Sub: sub("empty"), Profile: bitvector.NewProfile(64)},
		{Sub: sub("populated"), Profile: populated},
	}}
	data, err := Encode(&Envelope{Kind: KindBIA, BIA: &BIA{RequestID: "r1", Infos: []BrokerInfo{info}}})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if n := strings.Count(string(data), `"vectors"`); n != 2 {
		t.Errorf("BIA carries %d profile images, want 2 (one per non-nil profile): %s", n, data)
	}
	env, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got := env.BIA.Infos[0].Subscriptions
	if len(got) != 3 {
		t.Fatalf("decoded %d subscriptions, want 3", len(got))
	}
	if got[0].Profile != nil {
		t.Errorf("nil profile decoded as %+v", got[0].Profile.Snapshot())
	}
	for i, want := range []*bitvector.Profile{info.Subscriptions[1].Profile, populated} {
		g := got[i+1]
		if g.Sub.String() != info.Subscriptions[i+1].Sub.String() {
			t.Errorf("%s: subscription lost in round trip", g.Sub.ID)
		}
		if g.Profile == nil {
			t.Fatalf("%s: profile decoded as nil", g.Sub.ID)
		}
		if !reflect.DeepEqual(g.Profile.Snapshot(), want.Snapshot()) {
			t.Errorf("%s: profile %+v, want %+v", g.Sub.ID, g.Profile.Snapshot(), want.Snapshot())
		}
	}
	// A profile image that is no snapshot at all fails Decode as well.
	bad := strings.Replace(string(data), `"profile":{"cap":64,`, `"profile":{"cap":"64",`, 1)
	if bad == string(data) {
		t.Fatalf("no empty-profile image in %s", data)
	}
	if _, err := Decode([]byte(bad)); err == nil {
		t.Error("Decode accepted a profile whose capacity is a string")
	}
}

// TestDecodeRejectsHostileBIA sends the planner a BIA whose profile images
// break the vector invariants — a window wider than the capacity, which used
// to panic the first AndCount on it, set bits past or below the window, which
// inflate the load estimate, and a word count other than the capacity's grid
// size — and requires an error from Decode, never a panic or a profile.
func TestDecodeRejectsHostileBIA(t *testing.T) {
	full := bitvector.New(128)
	for id := 0; id < 100; id++ {
		full.Set(id)
	}
	overfull := full.Snapshot()
	overfull.First, overfull.Last = 7, 16
	stale := full.Snapshot()
	stale.First = 50
	// A well-formed BIA whose one profile image each case replaces.
	valid, err := Encode(&Envelope{Kind: KindBIA, BIA: &BIA{RequestID: "r1", Infos: []BrokerInfo{{
		ID: "B1", Subscriptions: []SubscriptionInfo{{
			Sub:     NewSubscription("s1", "c1", []Predicate{Pred("class", OpEq, String("STOCK"))}),
			Profile: bitvector.NewProfile(64),
		}},
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	const validImage = `{"cap":64,"vectors":{}}`
	if !strings.Contains(string(valid), validImage) {
		t.Fatalf("BIA %s does not carry the profile image %s", valid, validImage)
	}
	for name, snap := range map[string]bitvector.VectorSnapshot{
		"window wider than capacity": {First: 0, Last: 5000, Cap: 64, Words: bitvector.New(64).Snapshot().Words},
		"bits past the window":       overfull,
		"bits below the window":      stale,
		// One 64-bit word for capacity 64; the grid layout carries two.
		"words of the capacity alone": {First: 0, Last: -1, Cap: 64, Words: "AAAAAAAAAAA="},
	} {
		image, err := json.Marshal(bitvector.ProfileSnapshot{
			Cap: snap.Cap, Vectors: map[string]bitvector.VectorSnapshot{"ADV-1": snap},
		})
		if err != nil {
			t.Fatal(err)
		}
		data := []byte(strings.Replace(string(valid), validImage, string(image), 1))
		if env, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted the BIA: %+v", name, env.BIA.Infos[0].Subscriptions[0].Profile)
		} else if !strings.Contains(err.Error(), "ADV-1") {
			t.Errorf("%s: error %q does not name the publisher", name, err)
		}
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

// TestPublicationSizeIsAFreshWalk: whichever way a publication was made,
// its EncodedSize is a walk of its content as it is now — Hops is no part
// of it, and a write to the exported Attrs map shows at once. The size a
// publication carries from hop to hop is taken from it once on entry, so
// nothing may memoize it on the publication itself.
func TestPublicationSizeIsAFreshWalk(t *testing.T) {
	walk := func(p *Publication) int {
		n := len(p.AdvID) + 8 + 4
		for k, v := range p.Attrs {
			n += len(k) + 2 + v.EncodedSize()
		}
		return n
	}
	made := stockPub(4, "YHOO", 18)
	data, err := Encode(&Envelope{Kind: KindPublication, Pub: made})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Publication{
		"NewPublication": made,
		"Decode":         decoded.Pub,
		"struct literal": {AdvID: "ADV-X", Seq: 2, Hops: 5, Attrs: map[string]Value{"class": String("STOCK"), "open": Number(1)}},
	} {
		want := walk(p)
		if got := p.EncodedSize(); got != want {
			t.Errorf("%s: EncodedSize = %d, a walk reads %d", name, got, want)
		}
		p.Hops += 3
		if got := p.EncodedSize(); got != want {
			t.Errorf("%s: EncodedSize = %d after a hop, want %d", name, got, want)
		}
		p.Attrs["volume"] = Number(9)
		if got, want := p.EncodedSize(), walk(p); got != want {
			t.Errorf("%s: EncodedSize = %d after an Attrs write, a walk reads %d", name, got, want)
		}
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
