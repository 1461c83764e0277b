package greenps_test

import (
	"testing"
	"time"

	"github.com/greenps/greenps"
)

// TestFacadeEndToEnd exercises the public API over real TCP: two brokers,
// a threshold subscriber, a publisher, and a live CROC reconfiguration.
func TestFacadeEndToEnd(t *testing.T) {
	b1, err := greenps.StartBroker(greenps.BrokerOptions{
		ID: "B1", MatchingDelayPerSub: 0.0001, MatchingDelayBase: 0.001,
		OutputBandwidth: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Stop()
	b2, err := greenps.StartBroker(greenps.BrokerOptions{
		ID: "B2", MatchingDelayPerSub: 0.0001, MatchingDelayBase: 0.001,
		OutputBandwidth: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Stop()
	if err := b1.ConnectNeighbor(b2.Addr()); err != nil {
		t.Fatal(err)
	}
	if b1.ID() != "B1" || b1.Addr() == "" {
		t.Fatal("broker accessors broken")
	}

	sub, err := greenps.Connect("watcher", b2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Close() }()
	subID, err := sub.Subscribe("[class,=,'STOCK'],[symbol,=,'YHOO'],[low,<,19]")
	if err != nil {
		t.Fatal(err)
	}
	if subID == "" {
		t.Fatal("empty subscription ID")
	}
	deliveries := sub.Deliveries()

	pub, err := greenps.Connect("ticker", b1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	advID, err := pub.Advertise("[class,=,'STOCK'],[symbol,=,'YHOO']")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	// One match, one non-match.
	for _, low := range []float64{18.5, 22.0} {
		if err := pub.Publish(advID, map[string]any{
			"class": "STOCK", "symbol": "YHOO", "low": low, "lot": 100, "hot": true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case d := <-deliveries:
		if d.Attrs["low"] != 18.5 || d.Attrs["symbol"] != "YHOO" {
			t.Fatalf("delivery attrs = %v", d.Attrs)
		}
		if d.Attrs["lot"] != 100.0 || d.Attrs["hot"] != true {
			t.Fatalf("converted attrs = %v", d.Attrs)
		}
		if d.PublisherID != advID {
			t.Fatalf("publisher = %s, want %s", d.PublisherID, advID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery")
	}
	select {
	case d := <-deliveries:
		t.Fatalf("false positive delivered: %v", d.Attrs)
	case <-time.After(300 * time.Millisecond):
	}

	plan, err := greenps.Reconfigure(b1.Addr(), "CRAM-IOS", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Brokers != 1 {
		t.Fatalf("plan brokers = %d, want 1", plan.Brokers)
	}
	if plan.Subscribers[subID] == "" {
		t.Fatal("subscription not placed in plan")
	}
	if plan.Publishers[advID] == "" {
		t.Fatal("publisher not placed in plan")
	}
}

// TestSubscribeBackToBack subscribes two filters from one client with no
// pause between them. The IDs must differ, or the broker takes the second
// for the first and never delivers on it.
func TestSubscribeBackToBack(t *testing.T) {
	b, err := greenps.StartBroker(greenps.BrokerOptions{ID: "B1"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	sub, err := greenps.Connect("watcher", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Close() }()
	idLow, err := sub.Subscribe("[class,=,'STOCK'],[low,<,10]")
	if err != nil {
		t.Fatal(err)
	}
	idHigh, err := sub.Subscribe("[class,=,'STOCK'],[low,>,90]")
	if err != nil {
		t.Fatal(err)
	}
	if idLow == idHigh {
		t.Fatalf("both subscriptions got ID %q", idLow)
	}

	pub, err := greenps.Connect("ticker", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	advID, err := pub.Advertise("[class,=,'STOCK']")
	if err != nil {
		t.Fatal(err)
	}
	// The subscriptions and the publications travel on different
	// connections, so publish until each filter has delivered once.
	deliveries := sub.Deliveries()
	got := make(map[float64]bool)
	deadline := time.After(10 * time.Second)
	for len(got) < 2 {
		for _, low := range []float64{5, 95} {
			if !got[low] {
				if err := pub.Publish(advID, map[string]any{"class": "STOCK", "low": low}); err != nil {
					t.Fatal(err)
				}
			}
		}
		select {
		case d := <-deliveries:
			got[d.Attrs["low"].(float64)] = true
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatalf("deliveries by low = %v, want one at 5 and one at 95", got)
		}
	}
}

// TestDeliveriesCalledTwice takes Deliveries twice from one client. Both
// calls must return one channel, and it must carry every publication, in
// Seq order: a second converter on the same connection would take some.
func TestDeliveriesCalledTwice(t *testing.T) {
	b, err := greenps.StartBroker(greenps.BrokerOptions{ID: "B1"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	sub, err := greenps.Connect("watcher", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Close() }()
	if _, err := sub.Subscribe("[class,=,'STOCK']"); err != nil {
		t.Fatal(err)
	}
	first, deliveries := sub.Deliveries(), sub.Deliveries()
	if first != deliveries {
		t.Error("second Deliveries call returned a different channel")
	}

	pub, err := greenps.Connect("ticker", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	advID, err := pub.Advertise("[class,=,'STOCK']")
	if err != nil {
		t.Fatal(err)
	}
	// The subscription and the publications travel on different
	// connections, so publish probes until one is delivered.
	deadline := time.After(10 * time.Second)
	for probed := false; !probed; {
		if err := pub.Publish(advID, map[string]any{"class": "STOCK", "probe": true}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-deliveries:
			probed = true
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatal("no probe delivered")
		}
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := pub.Publish(advID, map[string]any{"class": "STOCK", "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	// Probes still in flight arrive first: one publisher's publications
	// reach the subscriber in order.
	lastSeq := -1
	for got := 0; got < n; {
		select {
		case d := <-deliveries:
			if d.Attrs["probe"] == true {
				continue
			}
			if lastSeq >= 0 && d.Seq != lastSeq+1 {
				t.Fatalf("publication %d has Seq %d after Seq %d", got, d.Seq, lastSeq)
			}
			lastSeq = d.Seq
			got++
		case <-time.After(2 * time.Second):
			t.Fatalf("received %d of %d publications", got, n)
		}
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := greenps.StartBroker(greenps.BrokerOptions{}); err == nil {
		t.Fatal("broker without ID accepted")
	}
	b, err := greenps.StartBroker(greenps.BrokerOptions{ID: "B9"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	c, err := greenps.Connect("c1", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.Subscribe("[broken"); err == nil {
		t.Fatal("bad filter accepted")
	}
	if _, err := c.Advertise("[broken"); err == nil {
		t.Fatal("bad advertisement accepted")
	}
	advID, err := c.Advertise("[class,=,'X']")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(advID, map[string]any{"bad": struct{}{}}); err == nil {
		t.Fatal("unsupported attribute type accepted")
	}
	if len(greenps.Algorithms()) != 8 {
		t.Fatal("algorithm list wrong")
	}
}
