package message

import (
	"strings"
	"testing"
)

func TestStringers(t *testing.T) {
	if got := String("x").String(); got != "'x'" {
		t.Errorf("string value renders %q", got)
	}
	if got := Number(1.5).String(); got != "1.5" {
		t.Errorf("number value renders %q", got)
	}
	if got := Bool(true).String(); got != "true" {
		t.Errorf("bool value renders %q", got)
	}
	if got := (Value{}).String(); got != "<invalid>" {
		t.Errorf("invalid value renders %q", got)
	}
	for _, k := range []ValueKind{KindString, KindNumber, KindBool, ValueKind(99)} {
		if k.String() == "" {
			t.Errorf("kind %d renders empty", int(k))
		}
	}
	if got := Op(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown op renders %q", got)
	}
	pub := NewPublication("A", 7, map[string]Value{
		"b": Number(2),
		"a": String("x"),
	})
	s := pub.String()
	if !strings.Contains(s, "P(A#7)") || strings.Index(s, "[a,") > strings.Index(s, "[b,") {
		t.Errorf("publication renders %q (attrs must be sorted)", s)
	}
	sub := NewSubscription("s1", "c", []Predicate{Pred("a", OpLt, Number(3))})
	if got := sub.String(); !strings.Contains(got, "S(s1)") || !strings.Contains(got, "[a,<,3]") {
		t.Errorf("subscription renders %q", got)
	}
	adv := NewAdvertisement("adv1", "p", []Predicate{Pred("a", OpGe, Number(1))})
	if got := adv.String(); !strings.Contains(got, "A(adv1)") {
		t.Errorf("advertisement renders %q", got)
	}
	for _, k := range []Kind{KindPublication, KindSubscription, KindUnsubscription,
		KindAdvertisement, KindUnadvertisement, KindBIR, KindBIA, Kind(42)} {
		if k.String() == "" {
			t.Errorf("kind %d renders empty", int(k))
		}
	}
}

func TestValueJSONRoundTrip(t *testing.T) {
	for _, v := range []Value{String("a"), Number(2.25), Bool(false)} {
		data, err := v.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var got Value
		if err := got.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	if _, err := (Value{}).MarshalJSON(); err == nil {
		t.Error("invalid value marshaled")
	}
	var v Value
	if err := v.UnmarshalJSON([]byte("[1,2]")); err == nil {
		t.Error("array unmarshaled into value")
	}
	if err := v.UnmarshalJSON([]byte("{bad")); err == nil {
		t.Error("garbage unmarshaled")
	}
}

func TestEncodedSizeComponents(t *testing.T) {
	if String("abc").EncodedSize() != 5 || Number(1).EncodedSize() != 8 || Bool(true).EncodedSize() != 1 {
		t.Error("value sizes wrong")
	}
	if (Value{}).EncodedSize() != 0 {
		t.Error("invalid value size wrong")
	}
	p := Pred("ab", OpEq, Number(1))
	if p.EncodedSize() != 2+2+8 {
		t.Errorf("predicate size = %d", p.EncodedSize())
	}
	sub := NewSubscription("id", "client", []Predicate{p})
	if sub.EncodedSize() <= 0 {
		t.Error("subscription size wrong")
	}
}
