package message

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParsePredicates parses a PADRES-style filter string such as
//
//	[class,=,'STOCK'],[symbol,=,'YHOO'],[low,<,19.5]
//
// into a predicate list. String values are single-quoted; bare true/false
// are booleans; anything else numeric is a number.
func ParsePredicates(s string) ([]Predicate, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Predicate
	rest := s
	for rest != "" {
		if rest[0] == ',' {
			rest = strings.TrimSpace(rest[1:])
			continue
		}
		if rest[0] != '[' {
			return nil, fmt.Errorf("message: expected '[' at %q", rest)
		}
		end := closingBracket(rest)
		if end < 0 {
			return nil, fmt.Errorf("message: unterminated predicate in %q", rest)
		}
		body := rest[1:end]
		rest = strings.TrimSpace(rest[end+1:])
		parts := splitPredicate(body)
		switch len(parts) {
		case 2:
			// [attr,isPresent] form.
			op, err := ParseOp(strings.TrimSpace(parts[1]))
			if err != nil || op != OpPresent {
				return nil, fmt.Errorf("message: two-part predicate %q must be isPresent", body)
			}
			out = append(out, Pred(strings.TrimSpace(parts[0]), OpPresent, Value{}))
		case 3:
			op, err := ParseOp(strings.TrimSpace(parts[1]))
			if err != nil {
				return nil, err
			}
			v, err := parseValue(strings.TrimSpace(parts[2]))
			if err != nil {
				return nil, err
			}
			out = append(out, Pred(strings.TrimSpace(parts[0]), op, v))
		default:
			return nil, fmt.Errorf("message: predicate %q must have 2 or 3 parts", body)
		}
	}
	return out, nil
}

// closingBracket returns the index of the first ']' outside single
// quotes, or -1.
func closingBracket(s string) int {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\'':
			inQuote = !inQuote
		case s[i] == ']' && !inQuote:
			return i
		}
	}
	return -1
}

// splitPredicate splits on commas outside single quotes.
func splitPredicate(s string) []string {
	var parts []string
	var cur strings.Builder
	inQuote := false
	for _, r := range s {
		switch {
		case r == '\'':
			inQuote = !inQuote
			cur.WriteRune(r)
		case r == ',' && !inQuote:
			parts = append(parts, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	parts = append(parts, cur.String())
	return parts
}

// parseValue interprets a literal: 'quoted string', true/false, or finite
// number.
func parseValue(s string) (Value, error) {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return String(s[1 : len(s)-1]), nil
	}
	switch s {
	case "true":
		return Bool(true), nil
	case "false":
		return Bool(false), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return Value{}, fmt.Errorf("message: cannot parse value %q", s)
	}
	// The wire carries only finite numbers (Encode refuses NaN and ±Inf).
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return Value{}, fmt.Errorf("message: value %q is not a finite number", s)
	}
	return Number(f), nil
}
