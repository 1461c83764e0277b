package client_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/client"
	"github.com/greenps/greenps/internal/message"
)

func startBroker(t *testing.T) *broker.Node {
	t.Helper()
	n, err := broker.StartNode(broker.NodeConfig{
		ID:         "B1",
		ListenAddr: "127.0.0.1:0",
		Delay:      message.MatchingDelayFn{Base: 0.001},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

func TestPublishSubscribeLoopback(t *testing.T) {
	b := startBroker(t)
	sub, err := client.Connect("sub1", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Close() }()
	if err := sub.Subscribe(message.NewSubscription("s1", "sub1", []message.Predicate{
		message.Pred("symbol", message.OpEq, message.String("YHOO")),
	})); err != nil {
		t.Fatal(err)
	}
	pub, err := client.Connect("pub1", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	if err := pub.Advertise(message.NewAdvertisement("ADV1", "pub1", []message.Predicate{
		message.Pred("symbol", message.OpEq, message.String("YHOO")),
	})); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond)
	// Publish twice: sequence numbers must auto-increment.
	for i := 0; i < 2; i++ {
		if err := pub.Publish("ADV1", map[string]message.Value{
			"symbol": message.String("YHOO"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for want := 0; want < 2; want++ {
		select {
		case p := <-sub.Publications():
			if p.Seq != want {
				t.Fatalf("seq = %d, want %d", p.Seq, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for delivery %d", want)
		}
	}
}

func TestUnsubscribeLive(t *testing.T) {
	b := startBroker(t)
	sub, err := client.Connect("sub1", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Close() }()
	if err := sub.Subscribe(message.NewSubscription("s1", "sub1", nil)); err != nil {
		t.Fatal(err)
	}
	pub, err := client.Connect("pub1", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	if err := pub.Advertise(message.NewAdvertisement("ADV1", "pub1", nil)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond)
	if err := pub.Publish("ADV1", map[string]message.Value{"x": message.Number(1)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Publications():
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery before unsubscribe")
	}
	if err := sub.Unsubscribe("s1"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond)
	if err := pub.Publish("ADV1", map[string]message.Value{"x": message.Number(2)}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-sub.Publications():
		t.Fatalf("delivery after unsubscribe: %v", p)
	case <-time.After(400 * time.Millisecond):
	}
}

func TestClientCloseClosesChannels(t *testing.T) {
	b := startBroker(t)
	c, err := client.Connect("c1", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-c.Publications(); ok {
		t.Fatal("publications channel still open after close")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("clean close left error %v", err)
	}
	// Double close is safe.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectValidation(t *testing.T) {
	if _, err := client.Connect("", "127.0.0.1:1"); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := client.Connect("x", "127.0.0.1:1"); err == nil {
		t.Fatal("unreachable broker accepted")
	}
}

func TestManyClientsFanIn(t *testing.T) {
	b := startBroker(t)
	const n = 8
	subs := make([]*client.Client, n)
	for i := range subs {
		c, err := client.Connect(fmt.Sprintf("sub%d", i), b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		subs[i] = c
		if err := c.Subscribe(message.NewSubscription(fmt.Sprintf("s%d", i),
			fmt.Sprintf("sub%d", i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := client.Connect("pub", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	if err := pub.Advertise(message.NewAdvertisement("A", "pub", nil)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond)
	if err := pub.Publish("A", map[string]message.Value{"k": message.Number(1)}); err != nil {
		t.Fatal(err)
	}
	for i, c := range subs {
		select {
		case <-c.Publications():
		case <-time.After(10 * time.Second):
			t.Fatalf("subscriber %d starved", i)
		}
	}
}

// TestDualRoleClient exercises the Section II-A adaptation: one client
// acting as both publisher and subscriber over a single connection.
func TestDualRoleClient(t *testing.T) {
	b := startBroker(t)
	dual, err := client.Connect("dual", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dual.Close() }()
	if err := dual.Subscribe(message.NewSubscription("s-other", "dual", []message.Predicate{
		message.Pred("topic", message.OpEq, message.String("other")),
	})); err != nil {
		t.Fatal(err)
	}
	if err := dual.Advertise(message.NewAdvertisement("ADV-dual", "dual", []message.Predicate{
		message.Pred("topic", message.OpEq, message.String("mine")),
	})); err != nil {
		t.Fatal(err)
	}
	other, err := client.Connect("other", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = other.Close() }()
	if err := other.Advertise(message.NewAdvertisement("ADV-other", "other", []message.Predicate{
		message.Pred("topic", message.OpEq, message.String("other")),
	})); err != nil {
		t.Fatal(err)
	}
	if err := other.Subscribe(message.NewSubscription("s-mine", "other", []message.Predicate{
		message.Pred("topic", message.OpEq, message.String("mine")),
	})); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond)
	// Each publishes; each receives the other's stream, not its own.
	if err := dual.Publish("ADV-dual", map[string]message.Value{"topic": message.String("mine")}); err != nil {
		t.Fatal(err)
	}
	if err := other.Publish("ADV-other", map[string]message.Value{"topic": message.String("other")}); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*client.Client{"dual": dual, "other": other} {
		select {
		case p := <-c.Publications():
			if name == "dual" && p.AdvID != "ADV-other" {
				t.Fatalf("dual received own publication %v", p)
			}
			if name == "other" && p.AdvID != "ADV-dual" {
				t.Fatalf("other received own publication %v", p)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s starved", name)
		}
	}
}

func TestUnadvertiseLive(t *testing.T) {
	b := startBroker(t)
	pub, err := client.Connect("pub1", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	if err := pub.Advertise(message.NewAdvertisement("A", "pub1", nil)); err != nil {
		t.Fatal(err)
	}
	if err := pub.Unadvertise("A"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond)
	// A subscription issued after unadvertisement reaches nothing; the
	// broker should hold it locally without forwarding anywhere.
	sub, err := client.Connect("sub1", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Close() }()
	if err := sub.Subscribe(message.NewSubscription("s1", "sub1", nil)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond) // subscription travels a different connection
	if err := pub.Publish("A", map[string]message.Value{"x": message.Number(1)}); err != nil {
		t.Fatal(err)
	}
	// Publication still delivered locally (matching is orthogonal to
	// advertisements on the local broker), proving the connection is
	// healthy after unadvertise.
	select {
	case <-sub.Publications():
	case <-time.After(10 * time.Second):
		t.Fatal("no local delivery after unadvertise")
	}
}

func TestClientBIRBIARoundTrip(t *testing.T) {
	b := startBroker(t)
	c, err := client.Connect("croc", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if c.ID() != "croc" {
		t.Fatalf("ID = %q", c.ID())
	}
	if err := c.SendBIR("req-1"); err != nil {
		t.Fatal(err)
	}
	select {
	case bia := <-c.BIAs():
		if bia.RequestID != "req-1" || len(bia.Infos) != 1 {
			t.Fatalf("BIA = %+v", bia)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no BIA")
	}
	// PublishAt with an explicit sequence number.
	if err := c.Advertise(message.NewAdvertisement("A", "croc", nil)); err != nil {
		t.Fatal(err)
	}
	pub := message.NewPublication("A", 77, map[string]message.Value{"x": message.Number(1)})
	if err := c.PublishAt(pub); err != nil {
		t.Fatal(err)
	}
}

// TestConnectSilentBrokerTimesOut: an address that accepts TCP and never
// answers the hello fails Connect at the hello deadline.
func TestConnectSilentBrokerTimesOut(t *testing.T) {
	const deadline = 300 * time.Millisecond
	client.SetHandshakeTimeout(t, deadline)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	done := make(chan error, 1)
	go func() {
		c, err := client.Connect("c1", l.Addr().String())
		if err == nil {
			_ = c.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Connect to a silent broker succeeded")
		}
	case <-time.After(deadline + 5*time.Second):
		t.Fatal("Connect to a silent broker still blocked past the hello deadline")
	}
}
