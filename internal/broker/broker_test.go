package broker_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/sim"
	"github.com/greenps/greenps/internal/telemetry"
)

// chain builds B0 - B1 - ... - B(n-1) on a fresh network; broker Bi
// reports its metrics to regs[i] when there is one.
func chain(t *testing.T, n int, regs ...*telemetry.Registry) *sim.Network {
	t.Helper()
	net := sim.NewNetwork()
	for i := 0; i < n; i++ {
		var inst *broker.Instruments
		if i < len(regs) {
			inst = broker.NewInstruments(regs[i])
		}
		if _, err := net.AddBroker(broker.Config{
			ID:              fmt.Sprintf("B%d", i),
			URL:             fmt.Sprintf("inproc://B%d", i),
			Delay:           message.MatchingDelayFn{PerSub: 0.0001, Base: 0.001},
			OutputBandwidth: 1e6,
			Instruments:     inst,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if err := net.ConnectBrokers(fmt.Sprintf("B%d", i-1), fmt.Sprintf("B%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// collect installs an observer on net that keeps each client's deliveries
// in arrival order.
func collect(net *sim.Network) map[string][]sim.Delivery {
	got := make(map[string][]sim.Delivery)
	net.OnDelivery = func(d sim.Delivery) { got[d.ClientID] = append(got[d.ClientID], d) }
	return got
}

func advertise(t *testing.T, net *sim.Network, clientID, advID, symbol string) {
	t.Helper()
	adv := message.NewAdvertisement(advID, clientID, []message.Predicate{
		message.Pred("class", message.OpEq, message.String("STOCK")),
		message.Pred("symbol", message.OpEq, message.String(symbol)),
	})
	if err := net.SendFromClient(clientID, &message.Envelope{Kind: message.KindAdvertisement, Adv: adv}); err != nil {
		t.Fatal(err)
	}
}

func subscribe(t *testing.T, net *sim.Network, clientID, subID, symbol string, extra ...message.Predicate) {
	t.Helper()
	preds := append([]message.Predicate{
		message.Pred("class", message.OpEq, message.String("STOCK")),
		message.Pred("symbol", message.OpEq, message.String(symbol)),
	}, extra...)
	sub := message.NewSubscription(subID, clientID, preds)
	if err := net.SendFromClient(clientID, &message.Envelope{Kind: message.KindSubscription, Sub: sub}); err != nil {
		t.Fatal(err)
	}
}

func publish(t *testing.T, net *sim.Network, clientID, advID string, seq int, symbol string, low float64) {
	t.Helper()
	pub := message.NewPublication(advID, seq, map[string]message.Value{
		"class":  message.String("STOCK"),
		"symbol": message.String(symbol),
		"low":    message.Number(low),
	})
	if err := net.SendFromClient(clientID, &message.Envelope{Kind: message.KindPublication, Pub: pub}); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndRouting(t *testing.T) {
	net := chain(t, 3)
	deliveries := collect(net)
	if _, err := net.AttachClient("pub", "B0"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AttachClient("subNear", "B0"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AttachClient("subFar", "B2"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AttachClient("subOther", "B1"); err != nil {
		t.Fatal(err)
	}
	advertise(t, net, "pub", "ADV-YHOO", "YHOO")
	subscribe(t, net, "subNear", "s1", "YHOO")
	subscribe(t, net, "subFar", "s2", "YHOO", message.Pred("low", message.OpLt, message.Number(19)))
	subscribe(t, net, "subOther", "s3", "GOOG")

	publish(t, net, "pub", "ADV-YHOO", 1, "YHOO", 18.0) // matches s1, s2
	publish(t, net, "pub", "ADV-YHOO", 2, "YHOO", 25.0) // matches s1 only

	near, far, other := deliveries["subNear"], deliveries["subFar"], deliveries["subOther"]
	if len(near) != 2 {
		t.Fatalf("subNear got %d deliveries, want 2", len(near))
	}
	if len(far) != 1 {
		t.Fatalf("subFar got %d deliveries, want 1", len(far))
	}
	if len(other) != 0 {
		t.Fatalf("subOther got %d deliveries, want 0 (no false positives)", len(other))
	}
	// Hop counts: near is on the publisher's broker (0 broker hops), far is
	// two brokers away, which on the chain fixes its path B0 -> B1 -> B2.
	if near[0].Hops != 0 {
		t.Errorf("near delivery hops = %d, want 0", near[0].Hops)
	}
	if far[0].Hops != 2 {
		t.Errorf("far delivery hops = %d, want 2", far[0].Hops)
	}
}

func TestSubscriptionBeforeAdvertisement(t *testing.T) {
	// Subscriptions issued before the advertisement exists must still be
	// routed when the advertisement floods (re-forwarding on new adv).
	net := chain(t, 3)
	if _, err := net.AttachClient("sub", "B2"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AttachClient("pub", "B0"); err != nil {
		t.Fatal(err)
	}
	subscribe(t, net, "sub", "s1", "YHOO")
	advertise(t, net, "pub", "ADV-YHOO", "YHOO")
	deliveries := collect(net)
	publish(t, net, "pub", "ADV-YHOO", 1, "YHOO", 10)
	if got := len(deliveries["sub"]); got != 1 {
		t.Fatalf("deliveries = %d, want 1 (subscription must chase new advertisement)", got)
	}
}

func TestUnsubscribeStopsDeliveries(t *testing.T) {
	net := chain(t, 2)
	if _, err := net.AttachClient("pub", "B0"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AttachClient("sub", "B1"); err != nil {
		t.Fatal(err)
	}
	advertise(t, net, "pub", "ADV-YHOO", "YHOO")
	subscribe(t, net, "sub", "s1", "YHOO")
	deliveries := collect(net)
	publish(t, net, "pub", "ADV-YHOO", 1, "YHOO", 10)
	if err := net.SendFromClient("sub", &message.Envelope{Kind: message.KindUnsubscription, UnsubID: "s1"}); err != nil {
		t.Fatal(err)
	}
	publish(t, net, "pub", "ADV-YHOO", 2, "YHOO", 10)
	if got := len(deliveries["sub"]); got != 1 {
		t.Fatalf("deliveries = %d, want 1 (second publication after unsubscribe)", got)
	}
	// Routing state fully cleaned on both brokers.
	for _, b := range []string{"B0", "B1"} {
		if n := net.Broker(b).NumSubscriptions(); n != 0 {
			t.Errorf("%s still has %d subscriptions", b, n)
		}
	}
}

func TestUnadvertiseStopsPropagation(t *testing.T) {
	net := chain(t, 2)
	if _, err := net.AttachClient("pub", "B0"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AttachClient("late", "B1"); err != nil {
		t.Fatal(err)
	}
	advertise(t, net, "pub", "ADV-YHOO", "YHOO")
	if err := net.SendFromClient("pub", &message.Envelope{Kind: message.KindUnadvertisement, UnadvID: "ADV-YHOO"}); err != nil {
		t.Fatal(err)
	}
	// A subscription issued after unadvertisement reaches no advertisement,
	// so it is not forwarded to B0 — send a publication anyway and verify
	// local-only behavior.
	subscribe(t, net, "late", "s1", "YHOO")
	// B0 must not know s1 (no intersecting advertisement to route along).
	if n := net.Broker("B0").NumSubscriptions(); n != 0 {
		t.Errorf("B0 learned %d subscriptions despite no advertisement", n)
	}
}

func TestBIRBIAAggregation(t *testing.T) {
	net := chain(t, 5)
	// A star of clients: subscribers on each broker plus a publisher.
	if _, err := net.AttachClient("pub", "B2"); err != nil {
		t.Fatal(err)
	}
	advertise(t, net, "pub", "ADV-YHOO", "YHOO")
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("c%d", i)
		if _, err := net.AttachClient(id, fmt.Sprintf("B%d", i)); err != nil {
			t.Fatal(err)
		}
		subscribe(t, net, id, "s-"+id, "YHOO")
	}
	for seq := 1; seq <= 10; seq++ {
		publish(t, net, "pub", "ADV-YHOO", seq, "YHOO", float64(seq))
	}
	net.Advance(10) // 10 virtual seconds -> rate 1 msg/s

	if _, err := net.AttachClient("croc", "B0"); err != nil {
		t.Fatal(err)
	}
	if err := net.SendFromClient("croc", &message.Envelope{
		Kind: message.KindBIR,
		BIR:  &message.BIR{RequestID: "r1"},
	}); err != nil {
		t.Fatal(err)
	}
	croc := net.Client("croc")
	if len(croc.BIAs) != 1 {
		t.Fatalf("CROC received %d BIAs, want exactly 1 aggregated answer", len(croc.BIAs))
	}
	bia := croc.BIAs[0]
	if bia.RequestID != "r1" {
		t.Fatalf("BIA request ID %q", bia.RequestID)
	}
	if len(bia.Infos) != 5 {
		t.Fatalf("BIA carries %d broker infos, want 5", len(bia.Infos))
	}
	seen := make(map[string]message.BrokerInfo)
	for _, bi := range bia.Infos {
		seen[bi.ID] = bi
	}
	for i := 0; i < 5; i++ {
		bi, ok := seen[fmt.Sprintf("B%d", i)]
		if !ok {
			t.Fatalf("B%d missing from BIA", i)
		}
		if len(bi.Subscriptions) != 1 {
			t.Errorf("B%d reports %d subscriptions, want 1", i, len(bi.Subscriptions))
		}
		// Each subscription profile recorded all 10 publications.
		prof := bi.Subscriptions[0].Profile
		if got := prof.Count(); got != 10 {
			t.Errorf("B%d profile bits = %d, want 10", i, got)
		}
	}
	// Publisher stats live on B2 and reflect the virtual clock.
	b2 := seen["B2"]
	if len(b2.Publishers) != 1 {
		t.Fatalf("B2 reports %d publishers, want 1", len(b2.Publishers))
	}
	st := b2.Publishers[0].Stats
	if st.Rate < 0.9 || st.Rate > 1.1 {
		t.Errorf("publisher rate = %v msg/s, want ~1.0", st.Rate)
	}
	if st.LastSeq != 10 {
		t.Errorf("publisher last seq = %d, want 10", st.LastSeq)
	}
}

func TestCountersAccumulate(t *testing.T) {
	reg0 := telemetry.New(nil)
	net := chain(t, 2, reg0)
	if _, err := net.AttachClient("pub", "B0"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AttachClient("sub", "B1"); err != nil {
		t.Fatal(err)
	}
	advertise(t, net, "pub", "ADV-YHOO", "YHOO")
	subscribe(t, net, "sub", "s1", "YHOO")
	base0 := net.Broker("B0").Counters()
	base1 := net.Broker("B1").Counters()
	const bytesIn = "greenps_broker_bytes_in_total"
	baseIn0 := counterValueTB(t, reg0, bytesIn)
	publish(t, net, "pub", "ADV-YHOO", 1, "YHOO", 10)
	c0 := net.Broker("B0").Counters()
	c1 := net.Broker("B1").Counters()
	// B0: 1 in (from pub), 1 out (to B1). B1: 1 in, 1 out (to sub).
	if c0.MsgsIn-base0.MsgsIn != 1 || c0.MsgsOut-base0.MsgsOut != 1 {
		t.Errorf("B0 delta in/out = %d/%d, want 1/1", c0.MsgsIn-base0.MsgsIn, c0.MsgsOut-base0.MsgsOut)
	}
	if c1.MsgsIn-base1.MsgsIn != 1 || c1.MsgsOut-base1.MsgsOut != 1 {
		t.Errorf("B1 delta in/out = %d/%d, want 1/1", c1.MsgsIn-base1.MsgsIn, c1.MsgsOut-base1.MsgsOut)
	}
	if c0.BytesOut <= base0.BytesOut || counterValueTB(t, reg0, bytesIn) <= baseIn0 {
		t.Error("byte counters did not grow")
	}
}

func TestDuplicateSubscriptionIgnored(t *testing.T) {
	net := chain(t, 2)
	if _, err := net.AttachClient("sub", "B0"); err != nil {
		t.Fatal(err)
	}
	subscribe(t, net, "sub", "s1", "YHOO")
	subscribe(t, net, "sub", "s1", "YHOO") // duplicate must be a no-op
	if n := net.Broker("B0").NumSubscriptions(); n != 1 {
		t.Fatalf("B0 has %d subscriptions, want 1", n)
	}
}

func TestBrokerConfigValidation(t *testing.T) {
	clock := func() float64 { return 0 }
	delay := message.MatchingDelayFn{PerSub: 1e-4, Base: 1e-3}
	for _, tc := range []struct {
		name string
		cfg  broker.Config
		ok   bool
	}{
		{"valid", broker.Config{ID: "B", Clock: clock, Delay: delay, OutputBandwidth: 1000}, true},
		{"negative bandwidth means unthrottled", broker.Config{ID: "B", Clock: clock, Delay: delay, OutputBandwidth: -1}, true},
		{"negative per-subscription delay", broker.Config{ID: "B", Clock: clock,
			Delay: message.MatchingDelayFn{PerSub: -1e-4, Base: 1e-3}}, false},
		{"negative base delay", broker.Config{ID: "B", Clock: clock,
			Delay: message.MatchingDelayFn{PerSub: 1e-4, Base: -1e-3}}, false},
		{"missing ID", broker.Config{Clock: clock}, false},
		{"missing clock", broker.Config{ID: "B"}, false},
		{"NaN bandwidth", broker.Config{ID: "B", Clock: clock, Delay: delay, OutputBandwidth: math.NaN()}, false},
		{"infinite bandwidth", broker.Config{ID: "B", Clock: clock, Delay: delay, OutputBandwidth: math.Inf(1)}, false},
		{"negative infinite bandwidth", broker.Config{ID: "B", Clock: clock, Delay: delay, OutputBandwidth: math.Inf(-1)}, false},
		{"NaN per-subscription delay", broker.Config{ID: "B", Clock: clock,
			Delay: message.MatchingDelayFn{PerSub: math.NaN(), Base: 1e-3}}, false},
		{"infinite base delay", broker.Config{ID: "B", Clock: clock,
			Delay: message.MatchingDelayFn{PerSub: 1e-4, Base: math.Inf(1)}}, false},
		{"NaN base delay", broker.Config{ID: "B", Clock: clock,
			Delay: message.MatchingDelayFn{PerSub: 1e-4, Base: math.NaN()}}, false},
	} {
		if _, err := broker.New(tc.cfg); (err == nil) != tc.ok {
			t.Errorf("%s: New returned %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestFanoutDeliversOneCopyPerNeighbor(t *testing.T) {
	// Star: hub B0 with leaves B1..B3, subscribers on each leaf with the
	// same interest; the hub must forward exactly one copy per leaf.
	net := sim.NewNetwork()
	for i := 0; i < 4; i++ {
		if _, err := net.AddBroker(broker.Config{
			ID: fmt.Sprintf("B%d", i), URL: "x",
			Delay:           message.MatchingDelayFn{Base: 0.001},
			OutputBandwidth: 1e6,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 4; i++ {
		if err := net.ConnectBrokers("B0", fmt.Sprintf("B%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AttachClient("pub", "B0"); err != nil {
		t.Fatal(err)
	}
	advertise(t, net, "pub", "ADV-YHOO", "YHOO")
	for i := 1; i < 4; i++ {
		for j := 0; j < 2; j++ { // two subscribers per leaf
			id := fmt.Sprintf("c%d-%d", i, j)
			if _, err := net.AttachClient(id, fmt.Sprintf("B%d", i)); err != nil {
				t.Fatal(err)
			}
			subscribe(t, net, id, "s-"+id, "YHOO")
		}
	}
	base := net.Broker("B0").Counters()
	deliveries := collect(net)
	publish(t, net, "pub", "ADV-YHOO", 1, "YHOO", 10)
	c := net.Broker("B0").Counters()
	if got := c.MsgsOut - base.MsgsOut; got != 3 {
		t.Fatalf("hub forwarded %d copies, want 3 (one per leaf, not per subscriber)", got)
	}
	total := 0
	for _, ds := range deliveries {
		total += len(ds)
	}
	if total != 6 {
		t.Fatalf("total deliveries = %d, want 6", total)
	}
}

// TestHostileSequenceNumbers: Publication.Seq comes off the wire unvalidated
// and lands in the profile of every local subscription it matches, so two
// publications whose IDs are further apart than an int can say must neither
// crash the broker on delivery nor leave a profile that Info() cannot build
// or the planner cannot decode.
func TestHostileSequenceNumbers(t *testing.T) {
	for _, first := range []int{math.MinInt, math.MinInt + 3, -5, 0} {
		for _, second := range []int{math.MaxInt, math.MinInt + 100, math.MinInt + 200, 70} {
			c, err := broker.New(broker.Config{ID: "B0", URL: "x", Clock: func() float64 { return 0 }})
			if err != nil {
				t.Fatal(err)
			}
			c.AddClient("pub")
			c.AddClient("sub")
			pubEP := broker.Endpoint{Kind: broker.KindClient, ID: "pub"}
			subEP := broker.Endpoint{Kind: broker.KindClient, ID: "sub"}
			sym := message.Pred("symbol", message.OpEq, message.String("YHOO"))
			msgs := []broker.Inbound{
				{From: pubEP, Env: &message.Envelope{Kind: message.KindAdvertisement,
					Adv: message.NewAdvertisement("ADV-1", "pub", []message.Predicate{sym})}},
				{From: subEP, Env: &message.Envelope{Kind: message.KindSubscription,
					Sub: message.NewSubscription("s1", "sub", []message.Predicate{sym})}},
			}
			for _, seq := range []int{first, second} {
				msgs = append(msgs, broker.Inbound{From: pubEP, Env: &message.Envelope{Kind: message.KindPublication,
					Pub: message.NewPublication("ADV-1", seq, map[string]message.Value{"symbol": message.String("YHOO")})}})
			}
			out, err := c.HandleBatch(msgs, nil)
			if err != nil {
				t.Fatalf("seq %d then %d: %v", first, second, err)
			}
			delivered := 0
			for _, o := range out {
				if o.Env.Kind == message.KindPublication && o.To == subEP {
					delivered++
				}
			}
			if delivered != 2 {
				t.Fatalf("seq %d then %d: %d deliveries to the local subscription, want 2", first, second, delivered)
			}
			info := c.Info()
			v := info.Subscriptions[0].Profile.Vector("ADV-1")
			if w := v.Window(); w < 1 || w > v.Snapshot().Cap || !v.Get(max(first, second)) {
				t.Fatalf("seq %d then %d: profile vector %v", first, second, v)
			}
			// The BIA that carries the profile must decode at the planner.
			data, err := message.Encode(&message.Envelope{Kind: message.KindBIA, BIA: &message.BIA{RequestID: "r", Infos: []message.BrokerInfo{info}}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := message.Decode(data); err != nil {
				t.Fatalf("seq %d then %d: the planner rejects the broker's own BIA: %v", first, second, err)
			}
		}
	}
}
