package broker_test

import (
	"net"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/client"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/transport"
)

func startNode(t *testing.T, id string) *broker.Node {
	t.Helper()
	n, err := broker.StartNode(broker.NodeConfig{
		ID:         id,
		ListenAddr: "127.0.0.1:0",
		Delay:      message.MatchingDelayFn{Base: 0.001},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

func TestNodeValidation(t *testing.T) {
	if _, err := broker.StartNode(broker.NodeConfig{ListenAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("node without ID accepted")
	}
	if _, err := broker.StartNode(broker.NodeConfig{ID: "B", ListenAddr: "256.0.0.1:bad"}); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

func TestNodeCountersAccessor(t *testing.T) {
	n := startNode(t, "B1")
	c, err := client.Connect("c1", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe(message.NewSubscription("s1", "c1", nil)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		if n.Counters().MsgsIn >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("counters never observed the subscription")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestNodeSurvivesPeerCrash kills a neighbor and verifies the survivor
// keeps serving local clients.
func TestNodeSurvivesPeerCrash(t *testing.T) {
	b1 := startNode(t, "B1")
	b2 := startNode(t, "B2")
	if err := b1.ConnectNeighbor(b2.Addr()); err != nil {
		t.Fatal(err)
	}
	sub, err := client.Connect("sub1", b1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Close() }()
	if err := sub.Subscribe(message.NewSubscription("s1", "sub1", nil)); err != nil {
		t.Fatal(err)
	}
	pub, err := client.Connect("pub1", b1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	if err := pub.Advertise(message.NewAdvertisement("A", "pub1", nil)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	b2.Stop() // neighbor crashes
	time.Sleep(200 * time.Millisecond)

	if err := pub.Publish("A", map[string]message.Value{"x": message.Number(1)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Publications():
	case <-time.After(10 * time.Second):
		t.Fatal("survivor stopped serving after peer crash")
	}
}

// TestNodeStopIdempotent verifies Stop can be called repeatedly and
// unblocks all goroutines.
func TestNodeStopIdempotent(t *testing.T) {
	n := startNode(t, "B1")
	n.Stop()
	n.Stop()
}

// TestNodeDuplicatePeerReplaced: a client reconnecting under the same ID
// replaces the old connection rather than wedging the broker.
func TestNodeDuplicatePeerReplaced(t *testing.T) {
	n := startNode(t, "B1")
	c1, err := client.Connect("dup", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := client.Connect("dup", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c2.Close() }()
	_ = c1 // the broker should have displaced c1's connection
	time.Sleep(100 * time.Millisecond)
	if err := c2.Subscribe(message.NewSubscription("s1", "dup", nil)); err != nil {
		t.Fatal(err)
	}
	pub, err := client.Connect("pub", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	if err := pub.Advertise(message.NewAdvertisement("A", "pub", nil)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if err := pub.Publish("A", map[string]message.Value{"x": message.Number(1)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c2.Publications():
	case <-time.After(10 * time.Second):
		t.Fatal("replacement connection starved")
	}
}

// TestNodeBrokerReconnectKeepsForwarding is the regression test for the
// reconnect membership race: when a neighbor broker reconnects,
// registerPeer replaces the connection table entry and closes the old
// connection — whose dying readPump then enqueues its drop.
// Unconditional, that drop deregistered the *new* link's neighbor
// registration from the core, so advertisement floods (and with them
// subscription routing and publication forwarding) silently skipped a
// connected neighbor. The drop of a replaced connection must leave its
// successor registered.
func TestNodeBrokerReconnectKeepsForwarding(t *testing.T) {
	b1 := startNode(t, "B1")
	b2 := startNode(t, "B2")
	if err := b2.ConnectNeighbor(b1.Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	// Reconnect: both ends replace their broker peer entry and close the
	// old link, racing its death notifications against the new link's
	// registration.
	if err := b2.ConnectNeighbor(b1.Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)

	// Route fresh state across the (reconnected) link: an advertisement
	// at B1 must flood to B2, B2's subscriber must route back to B1, and
	// the publication must be forwarded over to B2.
	sub, err := client.Connect("sub1", b2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Close() }()
	pub, err := client.Connect("pub1", b1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	if err := pub.Advertise(message.NewAdvertisement("A-rc", "pub1", nil)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if err := sub.Subscribe(message.NewSubscription("s-rc", "sub1", nil)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if err := pub.Publish("A-rc", map[string]message.Value{"x": message.Number(1)}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-sub.Publications():
		if d.Hops != 1 {
			t.Fatalf("delivered with %d hops, want 1", d.Hops)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("publication never crossed the reconnected broker link")
	}
}

// silentListener accepts TCP connections through the kernel backlog and
// never reads or writes: a peer that never answers a hello.
func silentListener(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l.Addr().String()
}

// TestNodeConnectNeighborSilentPeerTimesOut: a neighbor address that
// accepts TCP and never sends its hello fails ConnectNeighbor at the
// hello deadline instead of blocking it for good.
func TestNodeConnectNeighborSilentPeerTimesOut(t *testing.T) {
	const deadline = 300 * time.Millisecond
	broker.SetHandshakeTimeout(t, deadline)
	n := startNode(t, "B1")
	addr := silentListener(t)
	done := make(chan error, 1)
	go func() { done <- n.ConnectNeighbor(addr) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ConnectNeighbor to a silent peer succeeded")
		}
	case <-time.After(deadline + 5*time.Second):
		t.Fatal("ConnectNeighbor to a silent peer still blocked past the hello deadline")
	}
}

// TestNodeStopWithPendingHandshakes: Stop returns within the hello
// deadline while one accepted connection stays silent and another sends
// its hello only after Stop began, which must not register a peer that
// nothing closes.
func TestNodeStopWithPendingHandshakes(t *testing.T) {
	const deadline = time.Second
	broker.SetHandshakeTimeout(t, deadline)
	n := startNode(t, "B1")
	var raw [2]*transport.Conn
	for i := range raw {
		c, err := transport.Dial(n.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		raw[i] = c
	}
	// The node accepts in arrival order, so once a later client's
	// handshake completes both raw connections are in theirs.
	c, err := client.Connect("c1", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	stopped := make(chan struct{})
	start := time.Now()
	go func() {
		n.Stop()
		close(stopped)
	}()
	time.Sleep(50 * time.Millisecond)
	if err := raw[1].SendHello(transport.Hello{Kind: transport.PeerClient, ID: "late"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stopped:
		if d := time.Since(start); d > deadline+time.Second {
			t.Fatalf("Stop took %v with a %v hello deadline", d, deadline)
		}
	case <-time.After(deadline + 5*time.Second):
		t.Fatal("Stop still blocked past the hello deadline")
	}
}
