package transport

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"sync"
	"testing"

	"github.com/greenps/greenps/internal/message"
)

// TestBufPoolZeroLengthGet pins the degenerate request: a zero-length
// Get is still pooled (smallest class), still usable with append, and
// still round-trips through Put.
func TestBufPoolZeroLengthGet(t *testing.T) {
	p := NewBufPool()
	b := p.Get(0)
	if len(b) != 0 {
		t.Fatalf("Get(0): len %d, want 0", len(b))
	}
	if cap(b) != 1<<poolMinShift {
		t.Fatalf("Get(0): cap %d, want smallest class %d", cap(b), 1<<poolMinShift)
	}
	b = append(b, 1, 2, 3)
	p.Put(b)
	st := p.Stats()
	if st.Gets != 1 || st.Puts != 1 || st.Drops != 0 {
		t.Fatalf("stats %+v, want gets=1 puts=1 drops=0", st)
	}
	// The recycled block serves the next smallest-class request.
	if b2 := p.Get(1); cap(b2) != 1<<poolMinShift {
		t.Fatalf("Get(1) after Put(Get(0)): cap %d, want %d", cap(b2), 1<<poolMinShift)
	}
	if st := p.Stats(); st.Hits != 1 {
		t.Fatalf("Get(1) after Put(Get(0)): stats %+v, want a hit", st)
	}
}

// TestBufPoolOversizedRoundTrip pins the unpooled path end to end: the
// Get is counted, the buffer is exactly the requested size (no class
// rounding), and the Put is counted as a drop.
func TestBufPoolOversizedRoundTrip(t *testing.T) {
	p := NewBufPool()
	n := (64 << 10) + 1 // one past the largest class
	b := p.Get(n)
	if len(b) != n || cap(b) != n {
		t.Fatalf("oversized Get: len %d cap %d, want %d/%d", len(b), cap(b), n, n)
	}
	p.Put(b)
	st := p.Stats()
	if st.Gets != 1 || st.Hits != 0 || st.Puts != 1 || st.Drops != 1 {
		t.Fatalf("stats %+v, want gets=1 hits=0 puts=1 drops=1", st)
	}
	// The drop really dropped: the next in-class Get must miss.
	_ = p.Get(256)
	if st := p.Stats(); st.Hits != 0 {
		t.Fatalf("oversized buffer entered a freelist: %+v", st)
	}
}

// TestBufPoolDropsReslicedView pins Put's guard against a release of
// something other than a whole block: a view re-sliced off the front no
// longer has a class-sized capacity, so it is counted as a drop and can
// never be handed out again overlapping its parent.
func TestBufPoolDropsReslicedView(t *testing.T) {
	p := NewBufPool()
	b := p.Get(100)
	p.Put(b[1:])
	if st := p.Stats(); st.Puts != 1 || st.Drops != 1 {
		t.Fatalf("stats %+v, want the re-sliced Put dropped", st)
	}
	_ = p.Get(100)
	if st := p.Stats(); st.Hits != 0 {
		t.Fatalf("re-sliced view entered a freelist: %+v", st)
	}
}

// TestBufPoolStatsConcurrent hammers one pool from many goroutines and
// checks the counter arithmetic holds exactly: every Get and Put is
// counted once, and hits/drops never exceed their totals. Run under
// -race this also exercises the lock discipline.
func TestBufPoolStatsConcurrent(t *testing.T) {
	p := NewBufPool()
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				b := p.Get(1 << (uint(seed+i) % 12))
				b[0] = byte(i)
				p.Put(b)
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	if st.Gets != workers*iters || st.Puts != workers*iters {
		t.Fatalf("stats %+v, want gets=puts=%d", st, workers*iters)
	}
	if st.Hits > st.Gets || st.Drops > st.Puts || st.Hits < 0 || st.Drops < 0 {
		t.Fatalf("stats %+v violate hits<=gets, drops<=puts", st)
	}
}

// TestBufPoolDebugPoison verifies the GREENPS_POOLDEBUG contract: once
// Put accepts a buffer, its bytes are overwritten with the sentinel, so
// a holder of a stale reference reads poison instead of recycled frames.
func TestBufPoolDebugPoison(t *testing.T) {
	old := poolDebug
	poolDebug = true
	defer func() { poolDebug = old }()

	p := NewBufPool()
	b := p.Get(64)
	for i := range b {
		b[i] = 0x11
	}
	stale := b // the bug under test: a reference surviving the Put
	p.Put(b)
	for i, v := range stale {
		if v != poolPoison {
			t.Fatalf("byte %d after Put = %#x, want poison %#x", i, v, poolPoison)
		}
	}
}

// TestBufPoolDebugDoublePut verifies the other half of the
// GREENPS_POOLDEBUG contract: releasing a block that is already on its
// freelist panics instead of letting two later Gets share it. Without
// the debug flag the second Put is accepted silently, which is the bug
// the flag exists to expose.
func TestBufPoolDebugDoublePut(t *testing.T) {
	old := poolDebug
	poolDebug = true
	defer func() { poolDebug = old }()

	p := NewBufPool()
	b := p.Get(64)
	other := p.Get(64)
	p.Put(b)
	p.Put(other) // a distinct block of the same class is fine
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same block did not panic")
		}
	}()
	p.Put(b[:10]) // same block through a shorter view
}

// TestConnPoolBalance is the leak check for the three places the wire
// path holds a pooled buffer: every Get in readFrame is matched by a Put
// in readFrame (payload cut short), Recv or RecvHello on the success and
// on every error path, and a FrameEncoder batch that hit an Encode error
// still returns everything at Release. All traffic runs on a private
// pool so the books are exact.
func TestConnPoolBalance(t *testing.T) {
	pool := NewBufPool()
	frame := func(payload []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		return append(out, payload...)
	}
	// recvFrom feeds raw bytes to a fresh connection on the private pool,
	// closes the writing side, and hands the receiving Conn to recv.
	recvFrom := func(raw []byte, recv func(c *Conn)) {
		t.Helper()
		a, b := net.Pipe()
		c := NewConn(b)
		c.SetBufferPool(pool)
		defer c.Close()
		go func() {
			a.Write(raw)
			a.Close()
		}()
		recv(c)
	}
	wantErr := func(what string, err error) {
		t.Helper()
		if err == nil || err == io.EOF {
			t.Fatalf("%s: err = %v, want a failure", what, err)
		}
	}

	good, err := message.Encode(&message.Envelope{Kind: message.KindPublication,
		Pub: message.NewPublication("A", 1, map[string]message.Value{"x": message.Number(1)})})
	if err != nil {
		t.Fatal(err)
	}
	hello, err := json.Marshal(Hello{Kind: PeerClient, ID: "c1"})
	if err != nil {
		t.Fatal(err)
	}

	// Good traffic: a hello, then envelopes up to a clean EOF.
	recvFrom(append(frame(hello), append(frame(good), frame(good)...)...), func(c *Conn) {
		if _, err := c.RecvHello(); err != nil {
			t.Fatalf("good hello: %v", err)
		}
		for i := 0; i < 2; i++ {
			if _, err := c.Recv(); err != nil {
				t.Fatalf("good frame %d: %v", i, err)
			}
		}
		if _, err := c.Recv(); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
	})
	if st := pool.Stats(); st.Gets != 3 {
		t.Fatalf("good traffic made %d Gets, want 3 — the connection is not on the private pool", st.Gets)
	}
	// A header over MaxFrameSize is refused before any buffer is taken.
	recvFrom(binary.BigEndian.AppendUint32(nil, MaxFrameSize+1), func(c *Conn) {
		_, err := c.Recv()
		wantErr("oversized frame", err)
	})
	// The peer closes mid-payload: readFrame itself must release.
	recvFrom(frame(good)[:4+len(good)/2], func(c *Conn) {
		_, err := c.Recv()
		wantErr("truncated payload", err)
	})
	// Hellos that do not parse, and that parse but are invalid.
	for _, h := range []string{"{not json", `{"kind":"client","id":""}`} {
		recvFrom(frame([]byte(h)), func(c *Conn) {
			_, err := c.RecvHello()
			wantErr("hello "+h, err)
		})
	}
	// A well-framed payload that is not an envelope.
	recvFrom(frame([]byte("{not json")), func(c *Conn) {
		_, err := c.Recv()
		wantErr("undecodable envelope", err)
	})
	// An encoder batch: two payloads out, one Encode error, then Release.
	fe := NewFrameEncoder(pool)
	env := &message.Envelope{Kind: message.KindPublication,
		Pub: message.NewPublication("A", 2, map[string]message.Value{"x": message.Number(2)})}
	for hops := 0; hops < 2; hops++ {
		if _, err := fe.Encode(env, hops); err != nil {
			t.Fatal(err)
		}
	}
	_, err = fe.Encode(&message.Envelope{Kind: message.KindPublication}, 0)
	wantErr("Encode of a publication envelope without a publication", err)
	fe.Release()

	st := pool.Stats()
	if st.Gets != st.Puts {
		t.Fatalf("pool books do not balance: %d Gets vs %d Puts", st.Gets, st.Puts)
	}
	if want := int64(3 + 1 + 2 + 1 + 2); st.Gets != want {
		t.Fatalf("%d Gets, want %d: a scenario did not reach its buffer", st.Gets, want)
	}
}

func TestBufPoolRoundTrip(t *testing.T) {
	p := NewBufPool()
	b := p.Get(100)
	if len(b) != 100 || cap(b) != 256 {
		t.Fatalf("Get(100): len %d cap %d, want 100/256", len(b), cap(b))
	}
	p.Put(b)
	b2 := p.Get(200)
	if cap(b2) != 256 {
		t.Fatalf("Get(200) after Put: cap %d, want the recycled 256", cap(b2))
	}
	st := p.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v, want gets=2 hits=1 puts=1", st)
	}
}

func TestBufPoolSizeClasses(t *testing.T) {
	p := NewBufPool()
	for _, n := range []int{0, 1, 256, 257, 4096, 65536} {
		b := p.Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len %d", n, len(b))
		}
		if n > 0 && cap(b)&(cap(b)-1) != 0 {
			t.Fatalf("Get(%d): cap %d not a power of two", n, cap(b))
		}
		p.Put(b)
	}
	// Oversized requests bypass the pool entirely.
	big := p.Get(1 << 20)
	if len(big) != 1<<20 {
		t.Fatalf("oversized Get: len %d", len(big))
	}
	p.Put(big)
	if st := p.Stats(); st.Drops == 0 {
		t.Fatalf("oversized Put not dropped: %+v", st)
	}
}

func TestBufPoolBounded(t *testing.T) {
	p := NewBufPool()
	bufs := make([][]byte, poolMaxPerClass+10)
	for i := range bufs {
		bufs[i] = make([]byte, 256)
	}
	for _, b := range bufs {
		p.Put(b)
	}
	st := p.Stats()
	if st.Drops != 10 {
		t.Fatalf("drops = %d, want 10 (class bounded at %d)", st.Drops, poolMaxPerClass)
	}
}

// TestSendFramesRoundTrip gathers several frames into one write and
// verifies they arrive as distinct, correctly framed envelopes.
func TestSendFramesRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer func() { _ = ca.Close(); _ = cb.Close() }()

	var frames [][]byte
	for i := 0; i < 5; i++ {
		env := &message.Envelope{Kind: message.KindPublication,
			Pub: message.NewPublication("A", i, map[string]message.Value{"x": message.Number(float64(i))})}
		data, err := message.Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, data)
	}
	errc := make(chan error, 1)
	go func() { errc <- ca.SendFrames(frames) }()
	for i := 0; i < 5; i++ {
		env, err := cb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if env.Kind != message.KindPublication || env.Pub.Seq != i {
			t.Fatalf("frame %d: got kind %v seq %d", i, env.Kind, env.Pub.Seq)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := ca.SendFrames(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestFrameEncoderHopsOverride verifies the encoder materializes the
// carried hop count into the wire form without mutating the shared
// envelope, memoizing nothing itself (callers do), and recycles buffers
// on Release.
func TestFrameEncoderHopsOverride(t *testing.T) {
	pool := NewBufPool()
	fe := NewFrameEncoder(pool)
	pub := message.NewPublication("A", 1, map[string]message.Value{"x": message.Number(1)})
	pub.Hops = 2
	env := &message.Envelope{Kind: message.KindPublication, Pub: pub}

	raw, err := fe.Encode(env, 5)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := message.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Pub.Hops != 5 {
		t.Fatalf("decoded hops = %d, want 5", dec.Pub.Hops)
	}
	if pub.Hops != 2 {
		t.Fatalf("shared envelope mutated: hops = %d, want 2", pub.Hops)
	}
	same, err := fe.Encode(env, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec2, err := message.Decode(same)
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Pub.Hops != 2 {
		t.Fatalf("decoded hops = %d, want 2", dec2.Pub.Hops)
	}
	fe.Release()
	if st := pool.Stats(); st.Puts != 2 {
		t.Fatalf("Release returned %d buffers, want 2", st.Puts)
	}
}

// TestFrameEncoderMatchesEncode pins the frame encoder's output to
// message.Encode byte for byte (no trailing newline, identical JSON).
func TestFrameEncoderMatchesEncode(t *testing.T) {
	fe := NewFrameEncoder(nil)
	envs := []*message.Envelope{
		{Kind: message.KindPublication, Pub: message.NewPublication("A", 9, map[string]message.Value{"s": message.String("x")})},
		{Kind: message.KindSubscription, Sub: message.NewSubscription("s1", "c1", nil)},
		{Kind: message.KindUnsubscription, UnsubID: "s1"},
	}
	for _, env := range envs {
		want, err := message.Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fe.Encode(env, 0)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("kind %v: frame encoder %q != Encode %q", env.Kind, got, want)
		}
	}
	fe.Release()
}
