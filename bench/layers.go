package main

import (
	"fmt"
	"time"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/matching"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/transport"
)

// This file holds the traced pass's layer benchmarks that both kinds of
// workload use: each times calls into one internal package's public
// functions on the workload's own inputs, under a span of its own.

// microDur is how long each layer benchmark loops.
const microDur = 150 * time.Millisecond

// microBatch is the publication batch the matching and broker layers are
// driven with, the live event loop's drain limit.
const microBatch = 256

// benchLoop calls fn, which reports how many operations it performed,
// until microDur has passed, and returns the normalised time per
// operation in ns.
func (p *pass) benchLoop(name string, parent int, fn func() int) float64 {
	id := p.tr.start(name, parent)
	defer p.tr.end(id)
	t0 := p.now()
	ops := 0
	for p.now()-t0 < microDur.Nanoseconds() {
		ops += fn()
	}
	t1 := p.now()
	if ops == 0 {
		return 0
	}
	return float64(t1-t0) / float64(ops) * p.cal.speedOver(t0, t1)
}

// tableInput is a routing table with traffic for it: what a workload
// hands to the matching and broker layers.
type tableInput struct {
	advs []*message.Advertisement
	subs []*message.Subscription
	// pubs holds up to microBatch publications under the
	// advertisements above.
	pubs []*message.Publication
}

// microMatching times matching.CountingEngine.MatchBatch over the
// workload's table.
func (p *pass) microMatching(parent int, in *tableInput) error {
	eng := matching.NewCountingEngine()
	for _, s := range in.subs {
		if err := eng.Add(s); err != nil {
			return fmt.Errorf("matching layer: %w", err)
		}
	}
	hits := 0
	count := func(int, *message.Subscription) { hits++ }
	calls := 0
	ns := p.benchLoop("matching.MatchBatch", parent, func() int {
		eng.MatchBatch(in.pubs, count)
		calls++
		return len(in.pubs)
	})
	p.res.set("matching.match_ns", ns)
	p.res.set("matching.hits_per_pub", float64(hits)/float64(calls*len(in.pubs)))
	return nil
}

// microBroker times broker.Core.HandleBatch in process over the
// workload's table: every subscription attached to a local client, every
// publication arriving from its publisher's client.
func (p *pass) microBroker(parent int, in *tableInput) error {
	core, err := broker.New(broker.Config{
		ID: "B0", URL: "inproc://B0", Delay: message.MatchingDelayFn{Base: 0.001},
		Clock: func() float64 { return 0 },
	})
	if err != nil {
		return fmt.Errorf("broker layer: %w", err)
	}
	owner := make(map[string]broker.Endpoint, len(in.advs))
	for _, a := range in.advs {
		ep := broker.Endpoint{Kind: broker.KindClient, ID: a.PublisherID}
		owner[a.ID] = ep
		core.AddClient(ep.ID)
		if _, err = core.Handle(ep, &message.Envelope{Kind: message.KindAdvertisement, Adv: a}, nil); err != nil {
			return fmt.Errorf("broker layer: %w", err)
		}
	}
	for _, s := range in.subs {
		core.AddClient(s.SubscriberID)
		ep := broker.Endpoint{Kind: broker.KindClient, ID: s.SubscriberID}
		if _, err = core.Handle(ep, &message.Envelope{Kind: message.KindSubscription, Sub: s}, nil); err != nil {
			return fmt.Errorf("broker layer: %w", err)
		}
	}
	batch := make([]broker.Inbound, len(in.pubs))
	for i, pub := range in.pubs {
		batch[i] = broker.Inbound{From: owner[pub.AdvID], Env: &message.Envelope{Kind: message.KindPublication, Pub: pub}}
	}
	var out []broker.Outgoing
	emitted, calls := 0, 0
	ns := p.benchLoop("broker.HandleBatch", parent, func() int {
		out, err = core.HandleBatch(batch, out[:0])
		emitted += len(out)
		calls++
		return len(batch)
	})
	if err != nil {
		return fmt.Errorf("broker layer: %w", err)
	}
	p.res.set("broker.handle_batch_ns", ns)
	p.res.set("broker.out_per_pub", float64(emitted)/float64(calls*len(batch)))
	return nil
}

// microCodec times the publication envelope codec, the frame encoder
// and a loopback connection pair on the workload's publications.
func (p *pass) microCodec(parent int, pubs []*message.Publication) error {
	envs := make([]*message.Envelope, len(pubs))
	for i, pub := range pubs {
		envs[i] = &message.Envelope{Kind: message.KindPublication, Pub: pub}
	}
	encoded := make([][]byte, len(envs))
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var bytes int
	p.res.set("message.encode_ns", p.benchLoop("message.Encode", parent, func() int {
		bytes = 0
		for i, e := range envs {
			data, err := message.Encode(e)
			note(err)
			encoded[i] = data
			bytes += len(data)
		}
		return len(envs)
	}))
	p.res.set("message.pub_bytes", float64(bytes)/float64(len(envs)))
	if firstErr != nil {
		return fmt.Errorf("message layer: %w", firstErr)
	}
	p.res.set("message.decode_ns", p.benchLoop("message.Decode", parent, func() int {
		for _, data := range encoded {
			_, err := message.Decode(data)
			note(err)
		}
		return len(encoded)
	}))
	if firstErr != nil {
		return fmt.Errorf("message layer: %w", firstErr)
	}

	pool := transport.NewBufPool()
	fenc := transport.NewFrameEncoder(pool)
	const frameBatch = 64
	if len(envs) > frameBatch {
		envs = envs[:frameBatch]
	}
	p.res.set("transport.frame_encode_ns", p.benchLoop("transport.FrameEncoder.Encode", parent, func() int {
		for _, e := range envs {
			_, err := fenc.Encode(e, 1)
			note(err)
		}
		fenc.Release()
		return len(envs)
	}))
	if firstErr != nil {
		return fmt.Errorf("transport layer: %w", firstErr)
	}
	return p.microLoopback(parent, pool, fenc, envs)
}

// microLoopback times Conn.SendFrames and Conn.Recv over a loopback TCP
// pair: one goroutine writes the same gathered batch of frames for
// microDur and closes, this one reads until the stream ends.
func (p *pass) microLoopback(parent int, pool *transport.BufPool, fenc *transport.FrameEncoder, envs []*message.Envelope) error {
	id := p.tr.start("transport.SendFrames+Recv", parent)
	defer p.tr.end(id)
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("transport layer: %w", err)
	}
	defer l.Close()
	type accepted struct {
		conn *transport.Conn
		err  error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, aerr := l.Accept()
		acc <- accepted{c, aerr}
	}()
	out, err := transport.Dial(l.Addr(), 5*time.Second)
	if err != nil {
		return fmt.Errorf("transport layer: %w", err)
	}
	defer out.Close()
	var in *transport.Conn
	select {
	case a := <-acc:
		if a.err != nil {
			return fmt.Errorf("transport layer: accept: %w", a.err)
		}
		in = a.conn
	case <-time.After(5 * time.Second):
		return fmt.Errorf("transport layer: no connection accepted within 5s")
	}
	defer in.Close()
	in.SetBufferPool(pool)
	out.SetWriteTimeout(5 * time.Second)

	frames := make([][]byte, len(envs))
	for i, e := range envs {
		if frames[i], err = fenc.Encode(e, 1); err != nil {
			return fmt.Errorf("transport layer: %w", err)
		}
	}
	defer fenc.Release()

	type sendResult struct {
		inSend time.Duration
		frames int
		err    error
	}
	sent := make(chan sendResult, 1)
	t0 := p.now()
	go func() {
		var r sendResult
		for p.now()-t0 < microDur.Nanoseconds() && r.err == nil {
			s0 := time.Now()
			r.err = out.SendFrames(frames)
			r.inSend += time.Since(s0)
			r.frames += len(frames)
		}
		// Closing ends the reader's stream; a write error already did.
		_ = out.Close()
		sent <- r
	}()
	received := 0
	var rerr error
	for {
		if _, rerr = in.Recv(); rerr != nil {
			break
		}
		received++
	}
	t1 := p.now()
	s := <-sent
	if s.err != nil {
		return fmt.Errorf("transport layer: send: %w", s.err)
	}
	if received != s.frames {
		return fmt.Errorf("transport layer: received %d of %d frames: %v", received, s.frames, rerr)
	}
	speed := p.cal.speedOver(t0, t1)
	p.res.set("transport.send_ns", float64(s.inSend.Nanoseconds())/float64(s.frames)*speed)
	p.res.set("transport.recv_ns", float64(t1-t0)/float64(received)*speed)
	if st := pool.Stats(); st.Gets > 0 {
		p.res.set("transport.pool_hit_ratio", float64(st.Hits)/float64(st.Gets))
	}
	return nil
}
