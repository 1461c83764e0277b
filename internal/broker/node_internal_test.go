package broker

import (
	"io"
	"log"
	"net"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/transport"
)

// TestSendFailureOnLoopDoesNotDeadlock pins the event-loop re-entrancy
// fix: flushOutgoing runs on the event-loop goroutine, and a send failure
// used to route through dropPeer, whose membership update is a blocking
// enqueue onto the inbox — the very channel the event loop drains. With
// the inbox full (modeled here as unbuffered) the loop deadlocked against
// itself. flushOutgoing must instead drop the peer inline and return
// promptly.
func TestSendFailureOnLoopDoesNotDeadlock(t *testing.T) {
	core, err := New(Config{
		ID:    "B",
		URL:   "local",
		Delay: message.MatchingDelayFn{Base: 0.001},
		Clock: func() float64 { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	n := &Node{
		core:    core,
		limiter: NewLimiter(0),
		logger:  log.New(io.Discard, "", 0),
		inst:    NewInstruments(nil),
		tinst:   transport.NewInstruments(nil),
		inbox:   make(chan inboundMsg), // unbuffered: any enqueue from the loop goroutine blocks
		peers:   make(map[string]*peer),
		closing: make(chan struct{}),

		fenc:      transport.NewFrameEncoder(nil),
		frameMemo: make(map[frameKey][]byte),
		groupIdx:  make(map[string]int),
	}
	ep := Endpoint{Kind: KindClient, ID: "c1"}
	a, b := net.Pipe()
	_ = b.Close()
	conn := transport.NewConn(a)
	_ = conn.Close() // guarantee the SendFrames below fails immediately
	n.peers[ep.String()] = &peer{ep: ep, conn: conn}
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
	_, stillThere := n.peers[ep.String()]
	n.mu.Unlock()
	if stillThere {
		t.Fatal("dead peer not removed from the connection table")
	}
	if core.clients[ep.ID] {
		t.Fatal("dead client still in core membership")
	}
}
