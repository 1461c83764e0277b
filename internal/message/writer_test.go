package message

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// refValue mirrors Value with the MarshalJSON the codec had before the
// publication writer: one json.Marshal of the payload per value. The
// reference envelope below is marshaled by encoding/json alone, so it
// shares no code with AppendPublication.
type refValue Value

func (v refValue) MarshalJSON() ([]byte, error) {
	switch v.Kind {
	case KindString:
		return json.Marshal(v.Str)
	case KindNumber:
		return json.Marshal(v.Num)
	case KindBool:
		return json.Marshal(v.B)
	default:
		return nil, fmt.Errorf("reference: invalid value kind %d", int(v.Kind))
	}
}

// refPublication and refEnvelope mirror Publication and a publication
// Envelope field for field, tags included; the envelope's other payload
// fields are omitempty and empty in every valid publication envelope.
type refPublication struct {
	AdvID string              `json:"adv"`
	Seq   int                 `json:"seq"`
	Attrs map[string]refValue `json:"attrs"`
	Hops  int                 `json:"hops,omitempty"`
}

type refEnvelope struct {
	Kind Kind            `json:"kind"`
	Pub  *refPublication `json:"pub,omitempty"`
}

// refEncode is json.Marshal of the mirror of a publication envelope
// carrying p with hop count hops.
func refEncode(p *Publication, hops int) ([]byte, error) {
	rp := &refPublication{AdvID: p.AdvID, Seq: p.Seq, Hops: hops}
	if p.Attrs != nil {
		rp.Attrs = make(map[string]refValue, len(p.Attrs))
		for k, v := range p.Attrs {
			rp.Attrs[k] = refValue(v)
		}
	}
	return json.Marshal(refEnvelope{Kind: KindPublication, Pub: rp})
}

// refDecodeValue is Value.UnmarshalJSON as it was before the literal fast
// path: every value through an any.
func refDecodeValue(data []byte) (Value, error) {
	var raw any
	if err := json.Unmarshal(data, &raw); err != nil {
		return Value{}, err
	}
	switch x := raw.(type) {
	case string:
		return String(x), nil
	case float64:
		return Number(x), nil
	case bool:
		return Bool(x), nil
	}
	return Value{}, fmt.Errorf("reference: unsupported JSON type %T", raw)
}

// specialFloats are the numbers encoding/json's format treats specially:
// signed zeros, subnormals, both sides of the 'e' cut-offs at 1e-6 and
// 1e21, one-digit negative exponents, the extremes, and the non-finite
// values it refuses.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-7, 9.999999999999999e-7,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 123456789e13,
	18.37, 0.1, 1, -1, 1e300, math.MaxFloat64, -math.MaxFloat64,
	// The non-finite values stay last.
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// pubReader decodes a fuzz input into a publication; past the end of the
// input every read is zero.
type pubReader struct{ b []byte }

func (r *pubReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *pubReader) u64() uint64 {
	var w [8]byte
	for i := range w {
		w[i] = r.byte()
	}
	return binary.BigEndian.Uint64(w[:])
}

// int is a small value (-64..63) when the selector's top bit is clear,
// else eight bytes as an int64.
func (r *pubReader) int() int {
	if sel := r.byte(); sel&0x80 == 0 {
		return int(int8(sel<<1) >> 1)
	}
	return int(int64(r.u64()))
}

func (r *pubReader) str() string {
	n := min(int(r.byte()%32), len(r.b))
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *pubReader) number() float64 {
	if sel := int(r.byte()); sel < len(specialFloats) {
		return specialFloats[sel]
	}
	return math.Float64frombits(r.u64())
}

// publication reads: attribute count (0xFF: nil map, else mod 48), the
// advertisement ID, seq and hops, then per attribute a key, a kind
// selector and the payload — a string, a number, a bool, an invalid kind
// or a number from raw bits.
func (r *pubReader) publication() *Publication {
	mode := r.byte()
	p := &Publication{AdvID: r.str(), Seq: r.int(), Hops: r.int()}
	if mode == 0xFF {
		return p
	}
	p.Attrs = make(map[string]Value)
	for n := int(mode % 48); n > 0; n-- {
		k := r.str()
		switch r.byte() % 5 {
		case 0:
			p.Attrs[k] = String(r.str())
		case 1:
			p.Attrs[k] = Number(r.number())
		case 2:
			p.Attrs[k] = Bool(r.byte()&1 == 1)
		case 3:
			p.Attrs[k] = Value{Kind: ValueKind(r.byte()) * 4, Str: "x"}
		default:
			p.Attrs[k] = Number(math.Float64frombits(r.u64()))
		}
	}
	return p
}

// pubInput writes a fuzz input publication() reads back.
type pubInput struct{ b []byte }

func (w *pubInput) str(s string) *pubInput {
	w.b = append(w.b, byte(len(s)))
	w.b = append(w.b, s...)
	return w
}

func (w *pubInput) int(v int64) *pubInput {
	if v >= -64 && v < 64 {
		w.b = append(w.b, byte(v)&0x7F)
		return w
	}
	w.b = append(w.b, 0x80)
	w.b = binary.BigEndian.AppendUint64(w.b, uint64(v))
	return w
}

func newPubInput(mode byte, adv string, seq, hops int64) *pubInput {
	w := &pubInput{b: []byte{mode}}
	return w.str(adv).int(seq).int(hops)
}

func (w *pubInput) strAttr(k, v string) *pubInput { w.str(k); w.b = append(w.b, 0); return w.str(v) }

func (w *pubInput) special(k string, i int) *pubInput {
	w.str(k)
	w.b = append(w.b, 1, byte(i))
	return w
}

func (w *pubInput) bits(k string, f float64) *pubInput {
	w.str(k)
	w.b = append(w.b, 4)
	w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(f))
	return w
}

func (w *pubInput) boolAttr(k string, b bool) *pubInput {
	w.str(k)
	w.b = append(w.b, 2, 0)
	if b {
		w.b[len(w.b)-1] = 1
	}
	return w
}

func (w *pubInput) invalid(k string, kind byte) *pubInput {
	w.str(k)
	w.b = append(w.b, 3, kind)
	return w
}

// sanitized is what decoding p's encoding yields: every string with each
// invalid UTF-8 byte replaced by U+FFFD, and of keys that collide after
// that, the value of the one that sorts last (its member comes last in
// the object, and a later member overwrites). When every string is valid
// UTF-8 it is p itself, deeply.
func sanitized(p *Publication) *Publication {
	fix := func(s string) string { return string([]rune(s)) }
	q := &Publication{AdvID: fix(p.AdvID), Seq: p.Seq, Hops: p.Hops}
	if p.Attrs == nil {
		return q
	}
	q.Attrs = make(map[string]Value, len(p.Attrs))
	keys := make([]string, 0, len(p.Attrs))
	for k := range p.Attrs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		v := p.Attrs[k]
		if v.Kind == KindString {
			v.Str = fix(v.Str)
		}
		q.Attrs[fix(k)] = v
	}
	return q
}

// checkPublicationEncoding holds Encode and AppendPublication to the
// json.Marshal reference on p (at its own hop count and at override),
// and Decode(Encode(e)) to e as JSON can carry it.
func checkPublicationEncoding(t *testing.T, p *Publication, override int) {
	t.Helper()
	env := &Envelope{Kind: KindPublication, Pub: p}
	got, err := Encode(env)
	want, refErr := refEncode(p, p.Hops)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Encode error %v, json.Marshal reference error %v", err, refErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode wrote\n%s\njson.Marshal wrote\n%s", got, want)
	}
	prefix := []byte("frame:")
	gotHop, err := AppendPublication(slices.Clip(prefix), p, override)
	if err != nil {
		t.Fatalf("AppendPublication at hops %d: %v", override, err)
	}
	wantHop, err := refEncode(p, override)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotHop, append(prefix, wantHop...)) {
		t.Fatalf("AppendPublication at hops %d wrote\n%s\njson.Marshal wrote\n%s", override, gotHop, wantHop)
	}
	dec, err := Decode(got)
	if err != nil {
		t.Fatalf("Decode(Encode(e)): %v\n%s", err, got)
	}
	if exp := sanitized(p); !reflect.DeepEqual(dec, &Envelope{Kind: KindPublication, Pub: exp}) {
		t.Fatalf("Decode(Encode(e)) = %+v, want %+v", dec.Pub, exp)
	}
}

// inputOf encodes p (string keys and values under 32 bytes, fewer than
// 48 attributes, valid kinds), then a hop override, as a fuzz input.
func inputOf(p *Publication, override int64) []byte {
	w := newPubInput(byte(len(p.Attrs)), p.AdvID, int64(p.Seq), int64(p.Hops))
	keys := make([]string, 0, len(p.Attrs))
	for k := range p.Attrs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		switch v := p.Attrs[k]; v.Kind {
		case KindString:
			w.strAttr(k, v.Str)
		case KindNumber:
			w.bits(k, v.Num)
		case KindBool:
			w.boolAttr(k, v.B)
		}
	}
	return w.int(override).b
}

func FuzzPublicationEncoding(f *testing.F) {
	chain, fanout := codecShapes()
	f.Add(inputOf(chain, 2))
	f.Add(inputOf(fanout, 0))
	f.Add(newPubInput(0xFF, "nil-attrs", 0, 0).b)
	f.Add(newPubInput(0, "", -3, -1).b)
	f.Add(newPubInput(4, "<a&b>\xe2\x80\xa8\xe2\x80\xa9", math.MinInt64, math.MaxInt64).
		strAttr("\x00\x1f\b\f\n\r\t\"\\", "\xff\xfe<>&").
		strAttr("\xe2\x80\xa8", "\xe2\x80\xa9\xe2\x80").
		strAttr("\xed\xa0\x80", "\xc3\xa9\U0001F600\x7f").
		boolAttr("b", true).b)
	// The finite specials in one publication; each non-finite one alone,
	// so that its error is the only one.
	finite := specialFloats[:len(specialFloats)-3]
	specials := newPubInput(byte(len(finite)), "floats", 1, 2)
	for i := range finite {
		specials.special(fmt.Sprintf("f%02d", i), i)
	}
	f.Add(specials.b)
	for i := len(finite); i < len(specialFloats); i++ {
		f.Add(newPubInput(2, "non-finite", 1, 0).strAttr("a", "ok").special("z", i).b)
	}
	f.Add(newPubInput(3, "raw", 99, 0).bits("a", 1e-320).bits("b", math.Float64frombits(0x7ff8000000000001)).bits("c", -0.0).b)
	f.Add(newPubInput(2, "invalid", 1, 0).invalid("k", 0).strAttr("z", "ok").b)
	f.Add(newPubInput(2, "invalid", 1, 0).strAttr("a", "ok").invalid("k", 25).b)
	many := newPubInput(40, "many", 5, 3)
	for i := 0; i < 40; i++ {
		many.strAttr(fmt.Sprintf("k%02d", 39-i), strings.Repeat("v", i%7))
	}
	f.Add(many.b)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &pubReader{b: data}
		p := r.publication()
		checkPublicationEncoding(t, p, r.int())
	})
}

func FuzzValueDecode(f *testing.F) {
	for _, s := range []string{
		`true`, `false`, `null`, `"abc"`, `""`, `"a\"b"`, "\"\xc3\xa9\"", `"\u00e9"`, `"\u00"`, "\"\xff\"", "\"\x01\"",
		`"a"b"`, `"`, `"\"`, `18.37`, `-0`, `0`, `01`, `1.`, `.5`, `+1`, `-`, `1e`, `1e+`, `1E-7`,
		`1e400`, `-1e400`, `1e-400`, `123456789012345678901234567890`, `0x10`, `1_000`, `Inf`,
		`NaN`, `Infinity`, ` 1`, `1 `, `[1]`, `{}`, `{"k":1}`, `tru`, `truee`, "\"\xe2\x80\xa8\"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Value
		err := got.UnmarshalJSON(data)
		want, refErr := refDecodeValue(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("UnmarshalJSON(%q) error %v, reference error %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if got.Kind != want.Kind || got.Str != want.Str || got.B != want.B ||
			math.Float64bits(got.Num) != math.Float64bits(want.Num) {
			t.Fatalf("UnmarshalJSON(%q) = %#v, reference %#v", data, got, want)
		}
	})
}

// codecShapes returns the publication shapes of the wire benchmarks:
// wire_chain3's two attributes one hop in, and wire_fanout16's twelve.
func codecShapes() (chain, fanout *Publication) {
	chain = NewPublication("ADV-T", 1041, map[string]Value{
		"symbol": String("SYM042"), "price": Number(734.21),
	})
	chain.Hops = 1
	fanout = NewPublication("ADV-T", 1041, map[string]Value{
		"symbol": String("SYM042"), "price": Number(734.21), "class": String("STOCK"),
		"open": Number(735.08), "high": Number(737.6), "low": Number(733.02),
		"close": Number(734.9), "date": String("day-217"), "openClose%Diff": Number(0.0412),
		"highLow%Diff": Number(0.0087), "closeEqualsLow": Bool(false), "closeEqualsHigh": Bool(true),
	})
	return chain, fanout
}

// BenchmarkEnvelopeCodec times the publication codec on the wire
// benchmarks' two shapes: Encode (a fresh frame per call), append (the
// frame encoder's form, into reused scratch at a hop override) and
// Decode.
func BenchmarkEnvelopeCodec(b *testing.B) {
	chain, fanout := codecShapes()
	for _, shape := range []struct {
		name string
		pub  *Publication
	}{{"chain", chain}, {"fanout", fanout}} {
		env := &Envelope{Kind: KindPublication, Pub: shape.pub}
		data, err := Encode(env)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := Encode(env); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(shape.name+"/append", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			var scratch []byte
			for i := 0; i < b.N; i++ {
				if scratch, err = AppendPublication(scratch[:0], shape.pub, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(shape.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
