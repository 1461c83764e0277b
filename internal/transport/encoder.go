package transport

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/greenps/greenps/internal/message"
)

// FrameEncoder turns envelopes into frame payloads without a fresh
// allocation per frame: it writes into persistent scratch — a publication
// through message.AppendPublication, any other kind through a persistent
// json.Encoder — then copies the result into a pooled buffer the caller
// owns. The intended lifetime is Encode → SendFrames → Release: the
// broker's event loop encodes a batch (one payload per unique
// envelope/hops pair), hands the payloads to gathered writes, and
// releases them all once every write completed.
//
// Not safe for concurrent use; each owner (one event loop) keeps its
// own encoder.
type FrameEncoder struct {
	pool *BufPool
	// pub is the publication writer's scratch.
	pub []byte
	// buf and jenc encode every other kind.
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
// publication hop count written as hops: the broker core emits shared
// fan-out envelopes with the per-destination hop count carried beside
// them (broker.Outgoing.Hops), and the publication writer takes it as an
// argument, so the shared publication is neither copied nor mutated. The
// bytes are message.Encode's for the same envelope and hop count. The
// payload stays valid until the next Release, which reclaims every
// payload Encode handed out. Once the scratch and the pool have grown to
// the traffic, encoding a publication allocates nothing
// (TestFrameEncoderAllocationFree).
func (fe *FrameEncoder) Encode(env *message.Envelope, hops int) ([]byte, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	var raw []byte
	var err error
	if env.Kind == message.KindPublication {
		fe.pub, err = message.AppendPublication(fe.pub[:0], env.Pub, hops)
		raw = fe.pub
	} else {
		fe.buf.Reset()
		err = fe.jenc.Encode(env)
		// json.Encoder appends a newline the frame must not carry.
		raw = bytes.TrimSuffix(fe.buf.Bytes(), []byte("\n"))
	}
	if err != nil {
		return nil, fmt.Errorf("transport: encode envelope: %w", err)
	}
	payload := fe.pool.Get(len(raw))
	copy(payload, raw)
	fe.out = append(fe.out, payload)
	return payload, nil
}

// Release returns every payload handed out since the last Release to
// the pool. Callers must have finished all writes using them.
func (fe *FrameEncoder) Release() {
	for i, b := range fe.out {
		fe.pool.Put(b)
		fe.out[i] = nil
	}
	fe.out = fe.out[:0]
}
