package message

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The publication writer: the one encoder of KindPublication envelopes.
// It appends what json.Marshal writes for the same envelope, byte for
// byte, without reflection, so frames on the wire are the ones the
// encoding/json codec produced and any JSON reader still decodes them.
// FuzzPublicationEncoding holds it to a json.Marshal reference that shares
// no code with it (DESIGN.md §12.6).

// AppendPublication appends the encoding of a publication envelope
// carrying p to dst, with the publication's hop count written as hops
// (p.Hops is not read, so a shared fan-out publication needs no copy to
// carry a per-destination count). The layout is json.Marshal's for
// Envelope{Kind: KindPublication, Pub: p}: kind, pub; adv, seq, attrs in
// sorted key order (null for a nil map), and hops unless it is 0. An
// invalid value kind or a non-finite number is an error, as it is for
// json.Marshal; dst is then returned as far as it was written.
func AppendPublication(dst []byte, p *Publication, hops int) ([]byte, error) {
	dst = append(dst, `{"kind":`...)
	dst = strconv.AppendInt(dst, int64(KindPublication), 10)
	dst = append(dst, `,"pub":{"adv":`...)
	dst = appendString(dst, p.AdvID)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendInt(dst, int64(p.Seq), 10)
	dst = append(dst, `,"attrs":`...)
	dst, err := appendAttrs(dst, p.Attrs)
	if err != nil {
		return dst, err
	}
	if hops != 0 {
		dst = append(dst, `,"hops":`...)
		dst = strconv.AppendInt(dst, int64(hops), 10)
	}
	return append(dst, "}}"...), nil
}

// stackKeys is how many attribute keys appendAttrs sorts without a heap
// allocation; the stock-quote schema has twelve.
const stackKeys = 32

// appendAttrs writes an attribute map as encoding/json writes a
// map[string]Value: keys sorted bytewise, each value through appendValue.
func appendAttrs(dst []byte, attrs map[string]Value) ([]byte, error) {
	if attrs == nil {
		return append(dst, "null"...), nil
	}
	var stack [stackKeys]string
	keys := stack[:0]
	for k := range attrs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, k)
		dst = append(dst, ':')
		var err error
		if dst, err = appendValue(dst, attrs[k]); err != nil {
			return dst, fmt.Errorf("attribute %q: %w", k, err)
		}
	}
	return append(dst, '}'), nil
}

// appendValue writes v as Value.MarshalJSON does: a string, a number or a
// boolean literal.
func appendValue(dst []byte, v Value) ([]byte, error) {
	switch v.Kind {
	case KindString:
		return appendString(dst, v.Str), nil
	case KindNumber:
		return appendNumber(dst, v.Num)
	case KindBool:
		return strconv.AppendBool(dst, v.B), nil
	default:
		return dst, fmt.Errorf("message: marshal invalid value kind %d", int(v.Kind))
	}
}

// appendNumber writes f in encoding/json's float64 format: the shortest
// 'f' form, or 'e' below 1e-6 and from 1e21 with a one-digit negative
// exponent unpadded (e-7, not e-07). NaN and ±Inf have no JSON form.
func appendNumber(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("message: marshal unsupported number %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string with encoding/json's escaping:
// '"' and '\' backslashed; \b \f \n \r \t by name and every other control
// character, '<', '>' and '&' as \u00XX; U+2028 and U+2029 as their \u
// escapes; each byte of invalid UTF-8 as the escaped U+FFFD.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// decodeLiteral reads the value literals the publication writer emits —
// true, false, a string without escapes, a number — straight from their
// bytes, with the result json.Unmarshal into an any would give. ok is
// false for everything else (escaped or invalid-UTF-8 strings, null,
// numbers strconv.ParseFloat rejects, arrays, objects, surrounding
// space, malformed input), which the caller decodes through
// encoding/json. FuzzValueDecode holds the two paths to the same answers.
func decodeLiteral(data []byte) (v Value, ok bool) {
	switch {
	case string(data) == "true":
		return Bool(true), true
	case string(data) == "false":
		return Bool(false), true
	case len(data) >= 2 && data[0] == '"' && data[len(data)-1] == '"':
		body := data[1 : len(data)-1]
		ascii := true
		for _, b := range body {
			if b < 0x20 || b == '"' || b == '\\' {
				return Value{}, false
			}
			if b >= utf8.RuneSelf {
				ascii = false
			}
		}
		if !ascii && !utf8.Valid(body) {
			return Value{}, false
		}
		return String(string(body)), true
	case isJSONNumber(data):
		f, err := strconv.ParseFloat(string(data), 64)
		if err != nil {
			return Value{}, false
		}
		return Number(f), true
	}
	return Value{}, false
}

// isJSONNumber reports whether b is exactly one JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv.ParseFloat
// accepts more (Inf, hex, a leading '+' or '.', underscores), so it must
// not see anything else.
func isJSONNumber(b []byte) bool {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return false
		}
		i = j
	}
	return i == len(b)
}

// skipDigits returns the index of the first non-digit in b at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
