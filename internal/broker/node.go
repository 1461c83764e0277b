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
	// buffers on both directions, fenc encodes each run of one
	// (envelope, hops) pair once per flush, groups/groupIdx bucket a
	// flush's outgoings per destination preserving first-touch order.
	pool     *transport.BufPool
	fenc     *transport.FrameEncoder
	groups   []sendGroup
	groupIdx map[Endpoint]int
	outBuf   []Outgoing

	wg      sync.WaitGroup
	closing chan struct{}
	once    sync.Once
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
	// BIA messages report the bound address as the broker's URL.
	ListenAddr string
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
	epoch := time.Now()
	inst := NewInstruments(cfg.Telemetry)
	core, err := New(Config{
		ID:              cfg.ID,
		URL:             l.Addr(),
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

// handshakeTimeout bounds a neighbor dial's TCP connect and every hello
// exchange, dialed or accepted.
var handshakeTimeout = 5 * time.Second

// ConnectNeighbor dials a neighbor broker and registers the link on both
// ends.
func (n *Node) ConnectNeighbor(addr string) error {
	conn, err := transport.Dial(addr, handshakeTimeout)
	if err != nil {
		return err
	}
	h, err := conn.Handshake(transport.Hello{Kind: transport.PeerBroker, ID: n.ID()}, false, handshakeTimeout)
	if err != nil {
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
			h, err := conn.Handshake(transport.Hello{Kind: transport.PeerBroker, ID: n.ID()}, true, handshakeTimeout)
			if err != nil {
				n.logger.Printf("broker %s: handshake: %v", n.ID(), err)
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
	select {
	case <-n.closing:
		// Stop has closed the table: a handshake finishing after it
		// must not add a connection nothing will close.
		n.mu.Unlock()
		_ = conn.Close()
		return
	default:
	}
	if old, ok := n.peers[ep]; ok {
		_ = old.conn.Close()
	}
	n.peers[ep] = p
	n.mu.Unlock()

	// Membership changes go through the event loop for serialization.
	if ep.Kind == KindBroker {
		n.enqueueFn(func() { n.core.AddNeighbor(ep.ID) })
	}

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
			_ = p.conn.Close()
			n.enqueueFn(func() { n.drop(p) })
			return
		}
		select {
		case n.inbox <- inboundMsg{from: p.ep, env: env}:
		case <-n.closing:
			return
		}
	}
}

// drop retires a peer: it closes the connection and, only while p is
// still the endpoint's entry in the table, deletes that entry and removes
// a broker from the core's neighbors. A peer registerPeer replaced is no
// longer current, so its late drop cannot undo its successor's
// registration, whichever of the two the loop runs first. Event-loop
// only: it touches the core and never enqueues.
func (n *Node) drop(p *peer) {
	_ = p.conn.Close()
	n.mu.Lock()
	current := n.peers[p.ep] == p
	if current {
		delete(n.peers, p.ep)
	}
	n.mu.Unlock()
	if current && p.ep.Kind == KindBroker {
		n.core.RemoveNeighbor(p.ep.ID)
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
// (first-touch order), encodes and sizes each run of one (envelope, hops)
// pair once — so a publication fanned out to many neighbors is serialized
// and walked for its EncodedSize a single time, the core emitting all its
// copies in one run (the emission-run invariant, see Outgoing) — and
// writes each destination's frames in one gathered writev.
// Pooled encode buffers are released only after every group's write
// finished, since groups share frames. Unreachable peers are logged and
// skipped (the link-failure path is the overlay manager's
// responsibility, as in PADRES).
func (n *Node) flushOutgoing(outs []Outgoing) {
	if len(outs) == 0 {
		return
	}
	// The pair of the run being sent, its frame and its EncodedSize, the
	// bytes the limiter charges per copy.
	var (
		env  *message.Envelope
		hops int
		data []byte
		size int
	)
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
		if o.Env != env || o.Hops != hops {
			var d []byte
			var err error
			if h := n.tinst.EncodeSeconds; h != nil {
				start := time.Now()
				d, err = n.fenc.Encode(o.Env, o.Hops)
				h.ObserveDuration(time.Since(start))
			} else {
				d, err = n.fenc.Encode(o.Env, o.Hops)
			}
			if err != nil {
				n.logger.Printf("broker %s: encode for %s: %v", n.ID(), o.To, err)
				continue
			}
			env, hops, data, size = o.Env, o.Hops, d, o.Env.EncodedSize()
		}
		g := &n.groups[gi]
		g.frames = append(g.frames, data)
		g.bytes += size
	}
	for i := range n.groups {
		g := &n.groups[i]
		if len(g.frames) == 0 {
			continue
		}
		n.inst.LimiterWaitSeconds.ObserveDuration(n.limiter.Wait(g.bytes))
		if err := g.p.conn.SendFrames(g.frames); err != nil {
			n.logger.Printf("broker %s: send to %s: %v", n.ID(), g.p.ep, err)
			n.drop(g.p)
		}
	}
	n.fenc.Release()
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

// Stop shuts the node down and waits for all goroutines to exit. It
// closes the listener and every registered peer; a handshake still
// pending ends at its deadline, and one that completes after Stop began
// closes its connection instead of registering it.
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
