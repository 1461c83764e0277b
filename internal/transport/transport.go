// Package transport provides the wire protocol for live (non-simulated)
// greenps deployments: length-prefixed JSON frames over TCP, with a small
// hello handshake identifying each peer as a broker or a client.
//
// The framing is deliberately simple — a 4-byte big-endian length followed
// by one encoded message.Envelope — so that any language can implement a
// client, mirroring how the paper's PADRES deployment exposes brokers over
// plain sockets.
package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/telemetry"
)

// MaxFrameSize bounds a single frame; BIA messages carrying thousands of
// profiles stay well under this.
const MaxFrameSize = 64 << 20

// PeerKind identifies the remote end of a connection.
type PeerKind string

// Peer kinds.
const (
	PeerBroker PeerKind = "broker"
	PeerClient PeerKind = "client"
)

// Hello is the first frame on every connection.
type Hello struct {
	Kind PeerKind `json:"kind"`
	// ID is the broker or client identifier.
	ID string `json:"id"`
}

// TimeoutError is the typed error returned when a frame write exceeds
// the connection's configured write timeout: the peer stopped draining
// its socket, and the connection should be considered wedged. It
// unwraps to the underlying net error and reports Timeout() true, so
// both errors.As(*TimeoutError) and the net.Error timeout idiom work.
type TimeoutError struct {
	// Op is the operation that timed out ("write frames").
	Op string
	// After is the configured timeout that elapsed.
	After time.Duration
	// Err is the underlying deadline error.
	Err error
}

// Error renders the timeout.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("transport: %s timed out after %v: %v", e.Op, e.After, e.Err)
}

// Unwrap exposes the underlying net error to errors.Is/As.
func (e *TimeoutError) Unwrap() error { return e.Err }

// Timeout implements the net.Error timeout convention.
func (e *TimeoutError) Timeout() bool { return true }

// Instruments is the transport's optional telemetry bundle. Any field
// may be nil (nil instruments no-op), and a nil *Instruments disables
// everything, including the latency clock reads.
type Instruments struct {
	// FramesSent/FramesRecv count frames (hello included).
	FramesSent *telemetry.Counter
	FramesRecv *telemetry.Counter
	// BytesSent/BytesRecv count wire bytes including the 4-byte header.
	BytesSent *telemetry.Counter
	BytesRecv *telemetry.Counter
	// EncodeSeconds times the frame encodes of a broker's event loop
	// (Conn.Send does not observe it); DecodeSeconds times every decode
	// in Recv.
	EncodeSeconds *telemetry.Histogram
	DecodeSeconds *telemetry.Histogram
	// WriteTimeouts counts frame writes that exceeded the write timeout.
	WriteTimeouts *telemetry.Counter
}

// NewInstruments registers the transport metric set on a registry
// (returns an all-nil bundle on a nil registry, which disables
// instrumentation at zero cost).
func NewInstruments(r *telemetry.Registry) *Instruments {
	return &Instruments{
		FramesSent:    r.Counter("greenps_transport_frames_sent_total", "Frames written to peers (hello included)."),
		FramesRecv:    r.Counter("greenps_transport_frames_recv_total", "Frames read from peers (hello included)."),
		BytesSent:     r.Counter("greenps_transport_bytes_sent_total", "Wire bytes written, 4-byte frame headers included."),
		BytesRecv:     r.Counter("greenps_transport_bytes_recv_total", "Wire bytes read, 4-byte frame headers included."),
		EncodeSeconds: r.Histogram("greenps_transport_encode_seconds", "Envelope encode latency.", telemetry.DurationBuckets()),
		DecodeSeconds: r.Histogram("greenps_transport_decode_seconds", "Envelope decode latency.", telemetry.DurationBuckets()),
		WriteTimeouts: r.Counter("greenps_transport_write_timeouts_total", "Frame writes aborted by the write timeout."),
	}
}

// Conn is a framed connection. Send/SendFrames are safe for concurrent
// use; Recv must be called from a single goroutine. SetWriteTimeout,
// SetInstruments, and SetBufferPool configure the connection and must be
// called before it is shared.
type Conn struct {
	nc net.Conn
	r  *bufio.Reader

	wmu sync.Mutex
	// hdrs/iov/wv are writev scratch, guarded by wmu: hdrs is the header
	// arena, iov the vector of headers and payloads, wv the copy of iov
	// that WriteTo consumes. They persist so steady-state writes allocate
	// nothing; a local wv would escape into WriteTo.
	hdrs []byte
	iov  net.Buffers
	wv   net.Buffers

	// writeTimeout bounds each frame write (0 = no deadline).
	writeTimeout time.Duration
	// inst is never nil; the zero bundle no-ops.
	inst *Instruments
	// pool recycles receive payload buffers; never nil.
	pool *BufPool

	closeOnce sync.Once
	closeErr  error
}

// noopInstruments is the shared disabled bundle.
var noopInstruments = &Instruments{}

// defaultPool serves connections that don't get an explicit pool. Safe
// as a process-wide default because receive buffers live only between
// readFrame and the end of Recv.
var defaultPool = NewBufPool()

// NewConn wraps an established net.Conn. Frames are written straight to
// the socket as gathered (header+payload) vectors — there is no write
// buffer to flush and no intermediate copy.
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc:   nc,
		r:    bufio.NewReaderSize(nc, 1<<16),
		inst: noopInstruments,
		pool: defaultPool,
	}
}

// SetWriteTimeout bounds every subsequent frame write: a peer that
// stops draining its socket fails the writer with a *TimeoutError
// instead of wedging the writing goroutine indefinitely. Zero disables
// the deadline. Call before the connection is shared.
func (c *Conn) SetWriteTimeout(d time.Duration) { c.writeTimeout = d }

// SetInstruments attaches telemetry (nil detaches). Call before the
// connection is shared.
func (c *Conn) SetInstruments(in *Instruments) {
	if in == nil {
		in = noopInstruments
	}
	c.inst = in
}

// SetBufferPool makes the connection draw receive payload buffers from
// p (nil restores the package default). Call before the connection is
// shared.
func (c *Conn) SetBufferPool(p *BufPool) {
	if p == nil {
		p = defaultPool
	}
	c.pool = p
}

// Dial connects to a listener.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewConn(nc), nil
}

// Close closes the underlying connection. Safe to call multiple times.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.nc.Close() })
	return c.closeErr
}

// writeFrame sends one length-prefixed payload: SendFrames of one.
func (c *Conn) writeFrame(payload []byte) error {
	return c.SendFrames([][]byte{payload})
}

// SendFrames writes many already-encoded frame payloads as one gathered
// vector: every header and payload lands in a single writev (chunked by
// the kernel as needed), so a fan-out or a drained batch costs one
// syscall instead of one per frame. Payloads must each fit MaxFrameSize;
// the caller keeps ownership and may recycle them once SendFrames
// returns. An empty batch is a no-op.
func (c *Conn) SendFrames(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	var total int64
	for _, p := range payloads {
		if len(p) > MaxFrameSize {
			return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(p))
		}
		total += int64(len(p)) + 4
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.writeTimeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return fmt.Errorf("transport: set write deadline: %w", err)
		}
	}
	// Build the header arena first (it must not move once referenced),
	// then interleave headers and payloads into the vector.
	if need := 4 * len(payloads); cap(c.hdrs) < need {
		c.hdrs = make([]byte, need)
	}
	c.hdrs = c.hdrs[:4*len(payloads)]
	c.iov = c.iov[:0]
	for i, p := range payloads {
		h := c.hdrs[4*i : 4*i+4]
		binary.BigEndian.PutUint32(h, uint32(len(p)))
		c.iov = append(c.iov, h, p)
	}
	c.wv = c.iov
	//greenvet:lock-ok wmu IS the write-serialization lock: it must span the writev so concurrent batches cannot interleave, and the write deadline bounds the hold
	if _, err := c.wv.WriteTo(c.nc); err != nil {
		return c.writeErr("write frames", err)
	}
	c.inst.FramesSent.Add(int64(len(payloads)))
	c.inst.BytesSent.Add(total)
	return nil
}

// writeErr wraps a frame-write failure; deadline expiry becomes the
// typed *TimeoutError and is counted. Either way the connection is
// unusable for writing (the frame may be half-sent), so callers must
// drop it.
func (c *Conn) writeErr(op string, err error) error {
	var ne net.Error
	if c.writeTimeout > 0 && errors.As(err, &ne) && ne.Timeout() {
		c.inst.WriteTimeouts.Inc()
		return &TimeoutError{Op: op, After: c.writeTimeout, Err: err}
	}
	return fmt.Errorf("transport: %s: %w", op, err)
}

// readFrame receives one length-prefixed payload into a pooled buffer.
// The caller must return the buffer via c.pool.Put once the frame is
// consumed (Recv does so right after decoding).
func (c *Conn) readFrame() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown detection
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("transport: incoming frame of %d bytes exceeds limit", n)
	}
	payload := c.pool.Get(int(n))
	if _, err := io.ReadFull(c.r, payload); err != nil {
		c.pool.Put(payload)
		return nil, fmt.Errorf("transport: read payload: %w", err)
	}
	c.inst.FramesRecv.Inc()
	c.inst.BytesRecv.Add(int64(n) + 4)
	return payload, nil
}

// SendHello sends the handshake frame.
func (c *Conn) SendHello(h Hello) error {
	data, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("transport: marshal hello: %w", err)
	}
	return c.writeFrame(data)
}

// RecvHello receives the handshake frame.
func (c *Conn) RecvHello() (Hello, error) {
	var h Hello
	data, err := c.readFrame()
	if err != nil {
		return h, fmt.Errorf("transport: read hello: %w", err)
	}
	err = json.Unmarshal(data, &h)
	c.pool.Put(data) // json.Unmarshal copies; the frame buffer is dead
	if err != nil {
		return h, fmt.Errorf("transport: unmarshal hello: %w", err)
	}
	if h.ID == "" || (h.Kind != PeerBroker && h.Kind != PeerClient) {
		return h, fmt.Errorf("transport: invalid hello %+v", h)
	}
	return h, nil
}

// Handshake exchanges hellos on a fresh connection: it sends mine and
// reads the peer's, or, accepting, reads the peer's first and answers.
// The exchange shares one deadline timeout away, so a peer that accepts
// TCP and never speaks fails the handshake instead of blocking it. On an
// error the connection is closed.
func (c *Conn) Handshake(mine Hello, accepting bool, timeout time.Duration) (Hello, error) {
	var peer Hello
	err := c.nc.SetDeadline(time.Now().Add(timeout))
	if err == nil && !accepting {
		err = c.SendHello(mine)
	}
	if err == nil {
		peer, err = c.RecvHello()
	}
	if err == nil && accepting {
		err = c.SendHello(mine)
	}
	if err == nil {
		err = c.nc.SetDeadline(time.Time{})
	}
	if err != nil {
		_ = c.Close()
	}
	return peer, err
}

// Send encodes and sends one envelope.
func (c *Conn) Send(env *message.Envelope) error {
	data, err := message.Encode(env)
	if err != nil {
		return err
	}
	return c.writeFrame(data)
}

// Recv receives and decodes one envelope. It returns io.EOF when the peer
// closed cleanly.
func (c *Conn) Recv() (*message.Envelope, error) {
	data, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	var env *message.Envelope
	if h := c.inst.DecodeSeconds; h != nil {
		start := time.Now()
		env, err = message.Decode(data)
		h.ObserveDuration(time.Since(start))
	} else {
		env, err = message.Decode(data)
	}
	c.pool.Put(data) // message.Decode copies; the frame buffer is dead
	return env, err
}

// Listener accepts framed connections.
type Listener struct {
	l net.Listener
}

// Listen starts a TCP listener on addr (host:port; port 0 picks a free
// one).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for the next connection.
func (l *Listener) Accept() (*Conn, error) {
	nc, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }
