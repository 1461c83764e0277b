package broker

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/telemetry"
	"github.com/greenps/greenps/internal/transport"
)

// Node wraps a Core with a live TCP runtime: a listener, peer connections,
// a serialized event loop, and the per-broker bandwidth limiter the
// paper's heterogeneous experiments rely on ("we achieve bandwidth
// throttling through the use of a bandwidth limiter in each broker").
//
// All Core access happens on the event-loop goroutine, so the synchronous
// state machine needs no locking. Every outbound byte passes through the
// token-bucket limiter before hitting the socket.
type Node struct {
	core     *Core
	listener *transport.Listener
	limiter  *Limiter
	logger   *log.Logger

	// inst/tinst are never nil; zero bundles no-op. writeTimeout is
	// applied to every peer connection (0 = no deadline).
	inst         *Instruments
	tinst        *transport.Instruments
	writeTimeout time.Duration

	inbox chan inboundMsg

	mu    sync.Mutex
	peers map[Endpoint]*peer

	// Event-loop-only batching state (no locking): pool backs frame
	// buffers on both directions, fenc encodes each unique
	// (envelope, hops) pair once per flush, frameMemo remembers those
	// encodings and their sizes across a fan-out, groups/groupIdx bucket
	// a flush's outgoings per destination preserving first-touch order.
	pool      *transport.BufPool
	fenc      *transport.FrameEncoder
	frameMemo map[frameKey]frame
	groups    []sendGroup
	groupIdx  map[Endpoint]int
	outBuf    []Outgoing

	wg      sync.WaitGroup
	closing chan struct{}
	once    sync.Once
}

// frameKey identifies one encoded frame within a flush: the shared
// envelope plus the hop count materialized into it.
type frameKey struct {
	env  *message.Envelope
	hops int
}

// frame is one encoded frame of a flush and its envelope's EncodedSize,
// the bytes the limiter charges per copy sent.
type frame struct {
	data []byte
	size int
}

// sendGroup is one destination's share of a flush.
type sendGroup struct {
	p      *peer
	frames [][]byte
	// bytes is the EncodedSize sum, what the bandwidth limiter charges.
	bytes int
}

// inboundMsg is one queued event: either a message to handle or a control
// closure to run on the loop.
type inboundMsg struct {
	from  Endpoint
	env   *message.Envelope
	envFn func()
}

// peer is one live connection.
type peer struct {
	ep   Endpoint
	conn *transport.Conn
}

// inboxDepth bounds a node's event queue: room for a burst of frames from
// every peer while the loop flushes, and a bound, so a stalled loop blocks
// the read pumps and pushes back through TCP instead of buffering without
// limit.
const inboxDepth = 1024

// NodeConfig configures a live broker node.
type NodeConfig struct {
	// ID is the broker identifier (required).
	ID string
	// ListenAddr is the TCP address to bind ("127.0.0.1:0" for tests).
	ListenAddr string
	// AdvertisedURL overrides the URL reported in BIA messages (defaults
	// to the bound listen address).
	AdvertisedURL string
	// Delay is the matching-delay model reported to CROC.
	Delay message.MatchingDelayFn
	// OutputBandwidth throttles the broker's total output, bytes/s
	// (0 = unthrottled; the value is still reported to CROC).
	OutputBandwidth float64
	// ProfileCapacity is the CBC bit-vector capacity.
	ProfileCapacity int
	// Logger receives runtime diagnostics (nil = discard).
	Logger *log.Logger
	// Telemetry receives the broker and transport metric sets (nil
	// disables instrumentation).
	Telemetry *telemetry.Registry
	// WriteTimeout bounds each frame write to a peer; a peer that stops
	// draining fails the write with a transport.TimeoutError and is
	// dropped instead of wedging the event loop (0 = no deadline).
	WriteTimeout time.Duration
}

// StartNode creates the broker and begins serving.
func StartNode(cfg NodeConfig) (*Node, error) {
	l, err := transport.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	url := cfg.AdvertisedURL
	if url == "" {
		url = l.Addr()
	}
	epoch := time.Now()
	inst := NewInstruments(cfg.Telemetry)
	core, err := New(Config{
		ID:              cfg.ID,
		URL:             url,
		Delay:           cfg.Delay,
		OutputBandwidth: cfg.OutputBandwidth,
		ProfileCapacity: cfg.ProfileCapacity,
		Clock:           func() float64 { return time.Since(epoch).Seconds() },
		Instruments:     inst,
	})
	if err != nil {
		_ = l.Close()
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	pool := transport.NewBufPool()
	n := &Node{
		core:         core,
		listener:     l,
		limiter:      NewLimiter(cfg.OutputBandwidth),
		logger:       logger,
		inst:         inst,
		tinst:        transport.NewInstruments(cfg.Telemetry),
		writeTimeout: cfg.WriteTimeout,
		inbox:        make(chan inboundMsg, inboxDepth),
		peers:        make(map[Endpoint]*peer),
		pool:         pool,
		fenc:         transport.NewFrameEncoder(pool),
		frameMemo:    make(map[frameKey]frame),
		groupIdx:     make(map[Endpoint]int),
		closing:      make(chan struct{}),
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go n.eventLoop()
	return n, nil
}

// ID returns the broker's identifier.
func (n *Node) ID() string { return n.core.ID() }

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.listener.Addr() }

// ConnectNeighbor dials a neighbor broker and registers the link on both
// ends.
func (n *Node) ConnectNeighbor(addr string) error {
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		return err
	}
	if err = conn.SendHello(transport.Hello{Kind: transport.PeerBroker, ID: n.ID(), URL: n.Addr()}); err != nil {
		_ = conn.Close()
		return err
	}
	h, err := conn.RecvHello()
	if err != nil {
		_ = conn.Close()
		return err
	}
	if h.Kind != transport.PeerBroker {
		_ = conn.Close()
		return fmt.Errorf("broker: %s is not a broker", addr)
	}
	n.registerPeer(Endpoint{Kind: KindBroker, ID: h.ID}, conn)
	return nil
}

// acceptLoop admits inbound brokers and clients.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			select {
			case <-n.closing:
				return
			default:
				if errors.Is(err, net.ErrClosed) {
					return
				}
				n.logger.Printf("broker %s: accept: %v", n.ID(), err)
				continue
			}
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			h, err := conn.RecvHello()
			if err != nil {
				n.logger.Printf("broker %s: handshake: %v", n.ID(), err)
				_ = conn.Close()
				return
			}
			if err := conn.SendHello(transport.Hello{Kind: transport.PeerBroker, ID: n.ID(), URL: n.Addr()}); err != nil {
				_ = conn.Close()
				return
			}
			kind := KindClient
			if h.Kind == transport.PeerBroker {
				kind = KindBroker
			}
			n.registerPeer(Endpoint{Kind: kind, ID: h.ID}, conn)
		}()
	}
}

// registerPeer records the connection, updates the core's membership, and
// starts the read pump.
func (n *Node) registerPeer(ep Endpoint, conn *transport.Conn) {
	// Configure before the connection is shared with the read pump and
	// the event loop (the handshake frames are not counted).
	conn.SetInstruments(n.tinst)
	conn.SetWriteTimeout(n.writeTimeout)
	conn.SetBufferPool(n.pool)
	p := &peer{ep: ep, conn: conn}
	n.mu.Lock()
	if old, ok := n.peers[ep]; ok {
		_ = old.conn.Close()
	}
	n.peers[ep] = p
	n.mu.Unlock()

	// Membership changes go through the event loop for serialization.
	n.enqueueFn(func() {
		if ep.Kind == KindBroker {
			n.core.AddNeighbor(ep.ID)
		} else {
			n.core.AddClient(ep.ID)
		}
	})

	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.readPump(p)
	}()
}

// enqueueFn injects a control closure into the event loop.
func (n *Node) enqueueFn(fn func()) {
	select {
	case n.inbox <- inboundMsg{env: nil, from: Endpoint{}, envFn: fn}:
	case <-n.closing:
	}
}

// readPump forwards frames from one peer into the inbox.
func (n *Node) readPump(p *peer) {
	for {
		env, err := p.conn.Recv()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				select {
				case <-n.closing:
				default:
					n.logger.Printf("broker %s: read from %s: %v", n.ID(), p.ep, err)
				}
			}
			n.dropPeer(p)
			return
		}
		select {
		case n.inbox <- inboundMsg{from: p.ep, env: env}:
		case <-n.closing:
			return
		}
	}
}

// dropPeer removes a disconnected peer. It must only be called off the
// event-loop goroutine: the membership update is enqueued onto the inbox,
// and the event loop enqueueing against itself deadlocks once the inbox
// is full (the loop is the sole drainer). The loop's own failure path is
// dropPeerOnLoop.
func (n *Node) dropPeer(p *peer) {
	n.removePeer(p)
	n.enqueueFn(func() { n.forgetIfDisconnected(p.ep) })
}

// dropPeerOnLoop is dropPeer for callers already running on the event
// loop: Core access is serialized here by construction, so the
// membership update runs inline instead of round-tripping the inbox.
func (n *Node) dropPeerOnLoop(p *peer) {
	n.removePeer(p)
	n.forgetIfDisconnected(p.ep)
}

// removePeer unregisters the connection (if still current) and closes it.
func (n *Node) removePeer(p *peer) {
	n.mu.Lock()
	if cur, ok := n.peers[p.ep]; ok && cur == p {
		delete(n.peers, p.ep)
	}
	n.mu.Unlock()
	_ = p.conn.Close()
}

// forgetIfDisconnected updates the core's membership only when the
// endpoint has no live connection. The guard closes the reconnect
// membership race: when a peer reconnects, registerPeer replaces the
// table entry and closes the old connection, whose dying readPump then
// enqueues this forget — which, unconditional, would deregister the
// *new* link's neighbor/client registration and silently stop routing
// to a connected peer. Event-loop only.
func (n *Node) forgetIfDisconnected(ep Endpoint) {
	n.mu.Lock()
	_, connected := n.peers[ep]
	n.mu.Unlock()
	if connected {
		return
	}
	if ep.Kind == KindBroker {
		n.core.RemoveNeighbor(ep.ID)
	} else {
		n.core.RemoveClient(ep.ID)
	}
}

// maxEventBatch bounds how many queued envelopes one event-loop wakeup
// drains into a single HandleBatch call: large enough to amortize the
// per-wakeup and per-flush overhead under load, small enough to keep
// the loop responsive to control closures and shutdown.
const maxEventBatch = 256

// eventLoop serializes all Core access: each wakeup drains the inbox
// (up to maxEventBatch envelopes) into one HandleBatch call, then ships
// the emitted messages as gathered per-peer frame batches through the
// bandwidth limiter. Control closures act as barriers — the batch
// accumulated so far is handled and flushed before the closure runs, so
// closures observe exactly the state N sequential Handle calls would
// have produced.
func (n *Node) eventLoop() {
	defer n.wg.Done()
	var batch []Inbound
	for {
		select {
		case <-n.closing:
			return
		case m := <-n.inbox:
			batch = batch[:0]
			for {
				if m.envFn != nil {
					batch = n.handleAndFlush(batch)
					m.envFn()
				} else {
					batch = append(batch, Inbound{From: m.from, Env: m.env})
					if len(batch) >= maxEventBatch {
						break
					}
				}
				more := false
				select {
				case m = <-n.inbox:
					more = true
				default:
				}
				if !more {
					break
				}
			}
			n.inst.QueueDepth.Set(int64(len(n.inbox)))
			batch = n.handleAndFlush(batch)
		}
	}
}

// handleAndFlush runs one drained batch through the core and transmits
// everything it emitted, returning the batch slice truncated for reuse.
func (n *Node) handleAndFlush(batch []Inbound) []Inbound {
	if len(batch) == 0 {
		return batch
	}
	out, err := n.core.HandleBatch(batch, n.outBuf[:0])
	n.outBuf = out
	if err != nil {
		n.logger.Printf("broker %s: handle batch: %v", n.ID(), err)
	}
	n.flushOutgoing(out)
	return batch[:0]
}

// flushOutgoing groups a batch's outgoing messages per destination
// (first-touch order), encodes and sizes each unique (envelope, hops)
// pair once — so a publication fanned out to many neighbors is serialized
// and walked for its EncodedSize a single time — and writes each
// destination's frames in one gathered writev.
// Pooled encode buffers are released only after every group's write
// finished, since groups share frames. Unreachable peers are logged and
// skipped (the link-failure path is the overlay manager's
// responsibility, as in PADRES).
func (n *Node) flushOutgoing(outs []Outgoing) {
	if len(outs) == 0 {
		return
	}
	for _, o := range outs {
		gi, ok := n.groupIdx[o.To]
		if !ok {
			n.mu.Lock()
			p, up := n.peers[o.To]
			n.mu.Unlock()
			if !up {
				n.logger.Printf("broker %s: no connection to %s", n.ID(), o.To)
				continue
			}
			gi = len(n.groups)
			if gi < cap(n.groups) {
				n.groups = n.groups[:gi+1]
				n.groups[gi].p = p
				n.groups[gi].frames = n.groups[gi].frames[:0]
				n.groups[gi].bytes = 0
			} else {
				n.groups = append(n.groups, sendGroup{p: p})
			}
			n.groupIdx[o.To] = gi
		}
		fk := frameKey{env: o.Env, hops: o.Hops}
		f, ok := n.frameMemo[fk]
		if !ok {
			data, err := n.fenc.Encode(o.Env, o.Hops)
			if err != nil {
				n.logger.Printf("broker %s: encode for %s: %v", n.ID(), o.To, err)
				continue
			}
			f = frame{data: data, size: o.Env.EncodedSize()}
			n.frameMemo[fk] = f
		}
		g := &n.groups[gi]
		g.frames = append(g.frames, f.data)
		g.bytes += f.size
	}
	for i := range n.groups {
		g := &n.groups[i]
		if len(g.frames) == 0 {
			continue
		}
		n.inst.LimiterWaitSeconds.ObserveDuration(n.limiter.Wait(g.bytes))
		if err := g.p.conn.SendFrames(g.frames); err != nil {
			n.logger.Printf("broker %s: send to %s: %v", n.ID(), g.p.ep, err)
			// flushOutgoing runs on the event-loop goroutine, so the
			// async dropPeer would enqueue against the very inbox this
			// goroutine drains — a self-deadlock once the inbox is
			// full. Run the membership update inline instead.
			n.dropPeerOnLoop(g.p)
		}
	}
	n.fenc.Release()
	clear(n.frameMemo)
	clear(n.groupIdx)
	for i := range n.groups {
		n.groups[i].p = nil
		n.groups[i].frames = n.groups[i].frames[:0]
	}
	n.groups = n.groups[:0]
}

// Counters snapshots the broker's traffic counters (taken on the event
// loop to avoid racing Handle).
func (n *Node) Counters() Counters {
	ch := make(chan Counters, 1)
	n.enqueueFn(func() { ch <- n.core.Counters() })
	select {
	case c := <-ch:
		return c
	case <-n.closing:
		return Counters{}
	}
}

// Stop shuts the node down and waits for all goroutines to exit.
func (n *Node) Stop() {
	n.once.Do(func() {
		close(n.closing)
		_ = n.listener.Close()
		n.mu.Lock()
		for _, p := range n.peers {
			_ = p.conn.Close()
		}
		n.mu.Unlock()
	})
	n.wg.Wait()
}
