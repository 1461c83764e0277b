package broker

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
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

		fenc:     transport.NewFrameEncoder(nil),
		groupIdx: make(map[Endpoint]int),
	}
}

// TestSendFailureOnLoopDoesNotDeadlock pins the event-loop re-entrancy
// rule: flushOutgoing runs on the event-loop goroutine, and a send failure
// once retired the peer through a blocking enqueue onto the inbox — the
// very channel the event loop drains. With the inbox full (modeled here
// as unbuffered) the loop deadlocked against itself. flushOutgoing must
// instead drop the peer inline, taking the dead broker out of the
// connection table and the core's neighbors, and return promptly.
func TestSendFailureOnLoopDoesNotDeadlock(t *testing.T) {
	n := loopNode(t, nil)
	core := n.core
	ep := Endpoint{Kind: KindBroker, ID: "B2"}
	a, b := net.Pipe()
	_ = b.Close()
	conn := transport.NewConn(a)
	_ = conn.Close() // guarantee the SendFrames below fails immediately
	n.peers[ep] = &peer{ep: ep, conn: conn}
	core.AddNeighbor(ep.ID)

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
	if slices.Contains(core.neighbors, ep.ID) {
		t.Fatal("dead broker still in the core's neighbors")
	}
}

// TestNodeDropRetiresOnlyTheCurrentPeer pins drop's current-peer rule:
// the drop of a connection registerPeer already replaced closes it and
// leaves the successor in the table and the core's neighbors, while the
// drop of the current connection takes the broker out of both.
func TestNodeDropRetiresOnlyTheCurrentPeer(t *testing.T) {
	n := loopNode(t, nil)
	ep := Endpoint{Kind: KindBroker, ID: "B2"}
	newPeer := func() *peer {
		a, b := net.Pipe()
		t.Cleanup(func() { _ = b.Close() })
		return &peer{ep: ep, conn: transport.NewConn(a)}
	}
	replaced, current := newPeer(), newPeer()
	n.peers[ep] = current
	n.core.AddNeighbor(ep.ID)

	n.drop(replaced)
	if _, err := replaced.conn.Recv(); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("replaced connection still open after its drop: %v", err)
	}
	if n.peers[ep] != current || !slices.Contains(n.core.neighbors, ep.ID) {
		t.Fatal("a replaced peer's drop retired its successor")
	}
	n.drop(current)
	if _, ok := n.peers[ep]; ok || slices.Contains(n.core.neighbors, ep.ID) {
		t.Fatal("the current peer's drop left the broker in the table or the neighbors")
	}
}

// fanoutNode is a loopNode with four loopback-TCP clients whose every
// byte is drained, and one publication envelope addressed to all four.
func fanoutNode(t *testing.T) (*Node, []Outgoing) {
	t.Helper()
	n := loopNode(t, telemetry.New(nil))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
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
	return n, outs
}

// TestFlushAllocationFreeBeyondEncoder pins handleAndFlush's flush,
// flushOutgoing — grouping per destination, the one-run frame memo, the
// publication writer, the limiter and one gathered write per peer — at
// zero allocations (the HandleBatch before it is
// TestBrokerSteadyStateAllocationFree's): flushing one publication to four
// clients over loopback TCP allocates nothing once the encoder's scratch
// and the pool hold a frame.
func TestFlushAllocationFreeBeyondEncoder(t *testing.T) {
	n, outs := fanoutNode(t)
	flush := testing.AllocsPerRun(5000, func() { n.flushOutgoing(outs) })
	if len(n.peers) != 4 {
		t.Fatalf("%d peers left after the flushes, want 4: a write failed", len(n.peers))
	}
	if flush != 0 {
		t.Errorf("flushOutgoing allocates %v times per flush, want 0", flush)
	}
}

// TestFlushObservesEncodeLatency: the node times its frame encodes on
// the transport encode histogram, once per frame, so a flush of one
// publication to four clients observes one encode.
func TestFlushObservesEncodeLatency(t *testing.T) {
	n, outs := fanoutNode(t)
	n.flushOutgoing(outs)
	if got := n.tinst.EncodeSeconds.Count(); got != 1 {
		t.Fatalf("encode histogram count = %d after one fanned-out publication, want 1", got)
	}
}

// TestFlushChargesEncodedSize pins what the bandwidth limiter is charged
// per flush: each destination's group pays the EncodedSize of every
// envelope sent to it, whether its frame was encoded for that group or
// for an earlier copy of the same (envelope, hops) pair. The limiter runs
// at 1 B/s with an empty bucket, so each Wait sleeps exactly its charge in
// seconds.
func TestFlushChargesEncodedSize(t *testing.T) {
	n, outs := fanoutNode(t)
	first := outs[0].Env.EncodedSize()
	other := &message.Envelope{Kind: message.KindPublication, Pub: message.NewPublication("ADV2", 1,
		map[string]message.Value{"class": message.String("STOCK")})}
	second := other.EncodedSize()
	for _, tc := range []struct {
		name string
		outs []Outgoing
		want []int
	}{{
		// Two publications as the core emits them, each fanned out in one
		// run, the second to destinations the first reached too.
		name: "two publications",
		outs: append(slices.Clip(outs),
			Outgoing{To: outs[3].To, Env: other, Hops: 0},
			Outgoing{To: outs[1].To, Env: other, Hops: 0}),
		want: []int{first, first + second, first, first + second},
	}, {
		// The second sent twice to the first client (two hop counts, two
		// frames) and once more to the last, after the other hop count.
		name: "copies outside one run",
		outs: append(slices.Clip(outs),
			Outgoing{To: outs[0].To, Env: other, Hops: 1},
			Outgoing{To: outs[0].To, Env: other, Hops: 2},
			Outgoing{To: outs[3].To, Env: other, Hops: 1}),
		want: []int{first + 2*second, first, first, first + second},
	}} {
		l := NewLimiter(1)
		var charged []int
		l.sleep = func(d time.Duration) {
			charged = append(charged, int(d/time.Second))
			l.tokens = 0
		}
		l.burst, l.tokens = 0, 0
		n.limiter = l
		for round := 0; round < 3; round++ {
			charged = charged[:0]
			n.flushOutgoing(tc.outs)
			if fmt.Sprint(charged) != fmt.Sprint(tc.want) {
				t.Fatalf("%s: flush %d charged %v bytes per destination, want %v", tc.name, round, charged, tc.want)
			}
		}
	}
}
