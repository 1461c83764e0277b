package message

import (
	"fmt"
	"strings"
)

// Op is a predicate comparison operator.
type Op int

// Supported predicate operators. The allocation algorithms are
// language-independent, so this set can grow (the paper cites negation,
// string operators, XPath) without touching anything outside this package
// and the matching engine.
const (
	OpEq Op = iota + 1
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpPrefix  // string prefix match
	OpPresent // attribute exists, any value
)

// String returns the operator's PADRES-style token.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNeq:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpPrefix:
		return "str-prefix"
	case OpPresent:
		return "isPresent"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// ParseOp parses a PADRES-style operator token.
func ParseOp(s string) (Op, error) {
	switch s {
	case "=", "eq":
		return OpEq, nil
	case "!=", "neq":
		return OpNeq, nil
	case "<", "lt":
		return OpLt, nil
	case "<=", "le":
		return OpLe, nil
	case ">", "gt":
		return OpGt, nil
	case ">=", "ge":
		return OpGe, nil
	case "str-prefix":
		return OpPrefix, nil
	case "isPresent":
		return OpPresent, nil
	default:
		return 0, fmt.Errorf("message: unknown operator %q", s)
	}
}

// Predicate is a single attribute constraint within a subscription or an
// advertisement: <attr> <op> <value>.
type Predicate struct {
	Attr  string `json:"a"`
	Op    Op     `json:"o"`
	Value Value  `json:"v"`
}

// Pred is a convenience constructor.
func Pred(attr string, op Op, v Value) Predicate {
	return Predicate{Attr: attr, Op: op, Value: v}
}

// Matches evaluates the predicate against an attribute value. present
// reports whether the publication carries the attribute at all.
func (p Predicate) Matches(v Value, present bool) bool {
	return present && p.Holds(&v)
}

// Holds reports whether a value the publication carries satisfies the
// predicate: Matches(*v, true), evaluated in place. The matching engine
// verifies candidates with it, copying neither operand.
func (p *Predicate) Holds(v *Value) bool {
	switch p.Op {
	case OpPresent:
		return true
	case OpEq:
		return v.equal(&p.Value)
	case OpNeq:
		return v.Kind == p.Value.Kind && !v.equal(&p.Value)
	case OpLt:
		c, ok := v.compare(&p.Value)
		return ok && c < 0
	case OpLe:
		c, ok := v.compare(&p.Value)
		return ok && c <= 0
	case OpGt:
		c, ok := v.compare(&p.Value)
		return ok && c > 0
	case OpGe:
		c, ok := v.compare(&p.Value)
		return ok && c >= 0
	case OpPrefix:
		return v.Kind == KindString && p.Value.Kind == KindString &&
			strings.HasPrefix(v.Str, p.Value.Str)
	default:
		return false
	}
}

// String renders the predicate PADRES-style, e.g. [symbol,=,'YHOO'].
func (p Predicate) String() string {
	return "[" + p.Attr + "," + p.Op.String() + "," + p.Value.String() + "]"
}

// EncodedSize approximates the predicate's wire size in bytes.
func (p Predicate) EncodedSize() int {
	return len(p.Attr) + 2 + p.Value.EncodedSize()
}

// intervalOf maps a predicate over a totally ordered domain onto a
// (lo, hi, loOpen, hiOpen) interval, where nil bounds mean unbounded. It
// returns ok=false for predicates that are not interval-shaped (!=, prefix,
// present), which the intersection test treats conservatively.
func (p Predicate) intervalOf() (lo, hi *Value, loOpen, hiOpen, ok bool) {
	v := p.Value
	switch p.Op {
	case OpEq:
		return &v, &v, false, false, true
	case OpLt:
		return nil, &v, false, true, true
	case OpLe:
		return nil, &v, false, false, true
	case OpGt:
		return &v, nil, true, false, true
	case OpGe:
		return &v, nil, false, false, true
	default:
		return nil, nil, false, false, false
	}
}

// PredicatesIntersect conservatively decides whether two predicates on the
// same attribute can both be satisfied by a single value. It may return true
// for pairs it cannot analyse (never false negatives), which at worst
// creates an extra routing path — never a lost delivery.
func PredicatesIntersect(a, b Predicate) bool {
	al, ah, alo, aho, aok := a.intervalOf()
	bl, bh, blo, bho, bok := b.intervalOf()
	if !aok || !bok {
		// Non-interval operator involved; decide the easy definite cases.
		if a.Op == OpEq && b.Op == OpNeq {
			return !a.Value.Equal(b.Value)
		}
		if a.Op == OpNeq && b.Op == OpEq {
			return !a.Value.Equal(b.Value)
		}
		if a.Op == OpPrefix && b.Op == OpEq {
			return b.Value.Kind == KindString && strings.HasPrefix(b.Value.Str, a.Value.Str)
		}
		if a.Op == OpEq && b.Op == OpPrefix {
			return a.Value.Kind == KindString && strings.HasPrefix(a.Value.Str, b.Value.Str)
		}
		return true // conservative
	}
	// Intersect [al,ah] with [bl,bh]: the tighter lower bound must not
	// exceed the tighter upper bound.
	lo, loOpen := al, alo
	if bl != nil {
		if lo == nil {
			lo, loOpen = bl, blo
		} else if c, ok := bl.Compare(*lo); ok && (c > 0 || (c == 0 && blo)) {
			lo, loOpen = bl, blo
		}
	}
	hi, hiOpen := ah, aho
	if bh != nil {
		if hi == nil {
			hi, hiOpen = bh, bho
		} else if c, ok := bh.Compare(*hi); ok && (c < 0 || (c == 0 && bho)) {
			hi, hiOpen = bh, bho
		}
	}
	if lo == nil || hi == nil {
		return true
	}
	c, ok := lo.Compare(*hi)
	if !ok {
		return true // mixed kinds: conservative
	}
	if c > 0 {
		return false
	}
	if c == 0 && (loOpen || hiOpen) {
		return false
	}
	return true
}
