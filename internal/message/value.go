// Package message defines the content-based publish/subscribe data model
// used throughout greenps: typed attribute values, predicates, publications,
// subscriptions, advertisements, and the control messages exchanged by the
// CROC coordinator and broker back-ends (BIR/BIA).
//
// The model mirrors the PADRES-style language used in the paper's
// evaluation: publications are attribute/value maps such as
//
//	[class,'STOCK'],[symbol,'YHOO'],[low,18.37],...
//
// and subscriptions are predicate conjunctions such as
//
//	[class,=,'STOCK'],[symbol,=,'YHOO'],[low,<,19.00]
//
// The resource-allocation algorithms themselves never inspect this language
// (they operate on bit-vector profiles), but the substrate brokers route with
// it.
package message

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// ValueKind discriminates the dynamic type of a Value.
type ValueKind int

// Supported value kinds. Enums start at one so the zero Value is detectably
// invalid.
const (
	KindString ValueKind = iota + 1
	KindNumber
	KindBool
)

// String returns a human-readable kind name.
func (k ValueKind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindNumber:
		return "number"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("ValueKind(%d)", int(k))
	}
}

// Value is a dynamically typed attribute value. The zero Value is invalid;
// construct values with String, Number, or Bool.
type Value struct {
	Kind ValueKind `json:"k"`
	Str  string    `json:"s,omitempty"`
	Num  float64   `json:"n,omitempty"`
	B    bool      `json:"b,omitempty"`
}

// String constructs a string-valued Value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Number constructs a numeric Value.
func Number(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// Bool constructs a boolean Value.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// Equal reports exact equality of kind and payload.
func (v Value) Equal(o Value) bool { return v.equal(&o) }

// equal is Equal in place.
func (v *Value) equal(o *Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindString:
		return v.Str == o.Str
	case KindNumber:
		return v.Num == o.Num
	case KindBool:
		return v.B == o.B
	default:
		return false
	}
}

// Compare returns -1, 0, or +1 ordering v against o, and false when the two
// values are not comparable (different kinds, or booleans which are unordered
// beyond equality).
func (v Value) Compare(o Value) (int, bool) { return v.compare(&o) }

// compare is Compare in place.
func (v *Value) compare(o *Value) (int, bool) {
	if v.Kind != o.Kind {
		return 0, false
	}
	switch v.Kind {
	case KindString:
		switch {
		case v.Str < o.Str:
			return -1, true
		case v.Str > o.Str:
			return 1, true
		default:
			return 0, true
		}
	case KindNumber:
		switch {
		case v.Num < o.Num:
			return -1, true
		case v.Num > o.Num:
			return 1, true
		default:
			return 0, true
		}
	default:
		return 0, false
	}
}

// String renders the value as it would appear in a PADRES-style message.
func (v Value) String() string {
	switch v.Kind {
	case KindString:
		return "'" + v.Str + "'"
	case KindNumber:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.B)
	default:
		return "<invalid>"
	}
}

// EncodedSize returns the approximate on-the-wire size of the value in bytes.
// It is used by the bandwidth accounting in the brokers and by CROC's load
// estimation.
func (v Value) EncodedSize() int {
	switch v.Kind {
	case KindString:
		return len(v.Str) + 2
	case KindNumber:
		return 8
	case KindBool:
		return 1
	default:
		return 0
	}
}

var _ json.Marshaler = Value{}

// MarshalJSON implements a compact encoding: strings marshal as JSON strings,
// numbers as JSON numbers, bools as JSON booleans — the bytes json.Marshal
// writes for v.Str, v.Num or v.B, through the publication writer's value
// writer.
func (v Value) MarshalJSON() ([]byte, error) {
	return appendValue(nil, v)
}

var _ json.Unmarshaler = (*Value)(nil)

// UnmarshalJSON implements the inverse of MarshalJSON. The literals the
// writer emits are read directly; anything else is decoded through an any,
// with the same result either way.
func (v *Value) UnmarshalJSON(data []byte) error {
	if lit, ok := decodeLiteral(data); ok {
		*v = lit
		return nil
	}
	var raw any
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("message: unmarshal value: %w", err)
	}
	switch x := raw.(type) {
	case string:
		*v = String(x)
	case float64:
		*v = Number(x)
	case bool:
		*v = Bool(x)
	default:
		return fmt.Errorf("message: unmarshal value: unsupported JSON type %T", raw)
	}
	return nil
}
