package transport

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/greenps/greenps/internal/message"
)

// FrameEncoder turns envelopes into frame payloads without a fresh
// allocation per frame: it marshals into one persistent scratch buffer
// through a persistent json.Encoder, then copies the result into a
// pooled buffer the caller owns. The intended lifetime is Encode →
// SendFrames → Release: the broker's event loop encodes a batch (one
// payload per unique envelope/hops pair), hands the payloads to
// gathered writes, and releases them all once every write completed.
//
// Not safe for concurrent use; each owner (one event loop) keeps its
// own encoder.
type FrameEncoder struct {
	pool *BufPool
	buf  bytes.Buffer
	jenc *json.Encoder
	// out tracks every pooled payload handed out since the last Release.
	out [][]byte
}

// NewFrameEncoder returns an encoder drawing payload buffers from pool
// (nil uses the package default pool).
func NewFrameEncoder(pool *BufPool) *FrameEncoder {
	if pool == nil {
		pool = defaultPool
	}
	fe := &FrameEncoder{pool: pool}
	fe.jenc = json.NewEncoder(&fe.buf)
	return fe
}

// Encode returns a pooled frame payload holding env's encoding with the
// publication hop count overridden to hops: the broker core emits shared
// fan-out envelopes with the per-destination hop count carried beside
// them (broker.Outgoing.Hops), applied here at encode time via a shallow
// copy — the publication's attribute map is never cloned. The payload
// stays valid until the next Release, which reclaims every payload
// Encode handed out.
//
//greenvet:hotpath one call per unique (envelope, hops) pair per drained batch
func (fe *FrameEncoder) Encode(env *message.Envelope, hops int) ([]byte, error) {
	if env.Kind == message.KindPublication && env.Pub != nil && env.Pub.Hops != hops {
		pub := *env.Pub
		pub.Hops = hops
		hopped := message.Envelope{Kind: message.KindPublication, Pub: &pub}
		return fe.encode(&hopped)
	}
	return fe.encode(env)
}

// encode hands out a pooled payload that joins fe.out, the encoder's
// batch of outstanding frames; the next Release returns it to the pool.
func (fe *FrameEncoder) encode(env *message.Envelope) ([]byte, error) {
	if err := message.PreEncode(env); err != nil {
		return nil, err
	}
	fe.buf.Reset()
	if err := fe.jenc.Encode(env); err != nil {
		return nil, fmt.Errorf("transport: encode envelope: %w", err)
	}
	// json.Encoder appends a newline the frame must not carry.
	raw := fe.buf.Bytes()
	raw = raw[:len(raw)-1]
	payload := fe.pool.Get(len(raw))
	copy(payload, raw)
	fe.out = append(fe.out, payload)
	return payload, nil
}

// Release returns every payload handed out since the last Release to
// the pool. Callers must have finished all writes using them.
//
//greenvet:hotpath closes each drained batch's buffer lifetimes
func (fe *FrameEncoder) Release() {
	for i, b := range fe.out {
		fe.pool.Put(b)
		fe.out[i] = nil
	}
	fe.out = fe.out[:0]
}
