package broker

import (
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/telemetry"
	"github.com/greenps/greenps/internal/transport"
)

// loopNode is a Node without listener or goroutines, holding what the
// event loop's own methods touch; its inbox is unbuffered, so any enqueue
// from the loop goroutine blocks.
func loopNode(t *testing.T, reg *telemetry.Registry) *Node {
	t.Helper()
	core, err := New(Config{
		ID:    "B",
		URL:   "local",
		Delay: message.MatchingDelayFn{Base: 0.001},
		Clock: func() float64 { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Node{
		core:    core,
		limiter: NewLimiter(0),
		logger:  log.New(io.Discard, "", 0),
		inst:    NewInstruments(reg),
		tinst:   transport.NewInstruments(reg),
		inbox:   make(chan inboundMsg),
		peers:   make(map[Endpoint]*peer),
		closing: make(chan struct{}),

		fenc:      transport.NewFrameEncoder(nil),
		frameMemo: make(map[frameKey][]byte),
		groupIdx:  make(map[Endpoint]int),
	}
}

// TestSendFailureOnLoopDoesNotDeadlock pins the event-loop re-entrancy
// fix: flushOutgoing runs on the event-loop goroutine, and a send failure
// used to route through dropPeer, whose membership update is a blocking
// enqueue onto the inbox — the very channel the event loop drains. With
// the inbox full (modeled here as unbuffered) the loop deadlocked against
// itself. flushOutgoing must instead drop the peer inline and return
// promptly.
func TestSendFailureOnLoopDoesNotDeadlock(t *testing.T) {
	n := loopNode(t, nil)
	core := n.core
	ep := Endpoint{Kind: KindClient, ID: "c1"}
	a, b := net.Pipe()
	_ = b.Close()
	conn := transport.NewConn(a)
	_ = conn.Close() // guarantee the SendFrames below fails immediately
	n.peers[ep] = &peer{ep: ep, conn: conn}
	core.AddClient(ep.ID)

	done := make(chan struct{})
	go func() {
		n.flushOutgoing([]Outgoing{{To: ep, Env: &message.Envelope{Kind: message.KindUnsubscription, UnsubID: "s1"}}})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("flush to a dead peer blocked: the event loop is enqueueing against its own inbox")
	}

	n.mu.Lock()
	_, stillThere := n.peers[ep]
	n.mu.Unlock()
	if stillThere {
		t.Fatal("dead peer not removed from the connection table")
	}
	if core.clients[ep.ID] {
		t.Fatal("dead client still in core membership")
	}
}

// TestFlushAllocationFreeBeyondEncoder pins handleAndFlush's flush,
// flushOutgoing — grouping per destination, the frame memo, the limiter
// and one gathered write per peer — at no allocation of its own (the
// HandleBatch before it is TestBrokerSteadyStateAllocationFree's):
// flushing one publication to four clients over loopback TCP allocates
// exactly what a FrameEncoder allocates encoding it once, which is
// encoding/json's cost (ROADMAP item 1(b)).
func TestFlushAllocationFreeBeyondEncoder(t *testing.T) {
	n := loopNode(t, telemetry.New(nil))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pub := message.NewPublication("ADV1", 7, map[string]message.Value{
		"symbol": message.String("YHOO"), "low": message.Number(18.5),
	})
	env := &message.Envelope{Kind: message.KindPublication, Pub: pub}
	var outs []Outgoing
	var drains sync.WaitGroup
	t.Cleanup(drains.Wait) // after the connection cleanups below, which end the drains
	for i := 0; i < 4; i++ {
		conn, err := transport.Dial(l.Addr().String(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close(); _ = srv.Close() })
		drains.Add(1)
		go func() {
			defer drains.Done()
			buf := make([]byte, 64<<10)
			for {
				if _, err := srv.Read(buf); err != nil {
					return
				}
			}
		}()
		conn.SetInstruments(n.tinst)
		conn.SetWriteTimeout(time.Minute)
		ep := Endpoint{Kind: KindClient, ID: fmt.Sprintf("c%d", i)}
		n.peers[ep] = &peer{ep: ep, conn: conn}
		outs = append(outs, Outgoing{To: ep, Env: env, Hops: pub.Hops})
	}
	flush := meanAllocs(5000, func() { n.flushOutgoing(outs) })
	if len(n.peers) != 4 {
		t.Fatalf("%d peers left after the flushes, want 4: a write failed", len(n.peers))
	}
	fe := transport.NewFrameEncoder(nil)
	encode := meanAllocs(5000, func() {
		if _, err := fe.Encode(env, pub.Hops); err != nil {
			t.Fatal(err)
		}
		fe.Release()
	})
	if math.Abs(flush-encode) >= 0.5 {
		t.Errorf("flushOutgoing allocates %.2f times per flush, the encoder %.2f: the flush itself allocates", flush, encode)
	}
}

// meanAllocs is testing.AllocsPerRun without its rounding down: under -race
// sync.Pool drops a random quarter of its Puts, so encoding/json re-makes
// its pooled encode state at random and two rounded averages can straddle
// an integer.
func meanAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
