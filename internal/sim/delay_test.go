package sim

import (
	"math"
	"testing"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/message"
)

// collect installs an observer on net that keeps each client's deliveries
// in arrival order.
func collect(net *Network) map[string][]Delivery {
	got := make(map[string][]Delivery)
	net.OnDelivery = func(d Delivery) { got[d.ClientID] = append(got[d.ClientID], d) }
	return got
}

// TestDelayModelAccumulatesPerHop verifies the modeled delivery delay: at
// each broker a publication pays the linear matching delay, and on each
// link the transmission time (bytes over the sender's output bandwidth)
// plus the fixed link latency.
func TestDelayModelAccumulatesPerHop(t *testing.T) {
	net := NewNetwork()
	delay := message.MatchingDelayFn{PerSub: 0, Base: 0.010} // 10 ms per broker
	const bw = 100_000.0
	for _, id := range []string{"B0", "B1", "B2"} {
		if _, err := net.AddBroker(broker.Config{
			ID: id, URL: id, Delay: delay, OutputBandwidth: bw,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.ConnectBrokers("B0", "B1"); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBrokers("B1", "B2"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AttachClient("pub", "B0"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AttachClient("sub", "B2"); err != nil {
		t.Fatal(err)
	}
	adv := message.NewAdvertisement("A", "pub", nil)
	if err := net.SendFromClient("pub", &message.Envelope{Kind: message.KindAdvertisement, Adv: adv}); err != nil {
		t.Fatal(err)
	}
	sub := message.NewSubscription("s1", "sub", nil)
	if err := net.SendFromClient("sub", &message.Envelope{Kind: message.KindSubscription, Sub: sub}); err != nil {
		t.Fatal(err)
	}
	pub := message.NewPublication("A", 1, map[string]message.Value{"x": message.Number(1)})
	env := &message.Envelope{Kind: message.KindPublication, Pub: pub}
	size := float64(env.EncodedSize())
	deliveries := collect(net)
	if err := net.SendFromClient("pub", env); err != nil {
		t.Fatal(err)
	}
	delivered := deliveries["sub"]
	if len(delivered) != 1 {
		t.Fatalf("deliveries = %d", len(delivered))
	}
	got := delivered[0].Delay
	// Path: B0 (match) -> link -> B1 (match) -> link -> B2 (match) -> client.
	// Every broker holds exactly 1 subscription, so matching delay is
	// Base = 10 ms each; three transmissions at size/bw; two broker links
	// at DefaultLinkLatency.
	want := 3*0.010 + 3*size/bw + 2*DefaultLinkLatency
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("delay = %.6f s, want %.6f s", got, want)
	}
	if delivered[0].Hops != 2 {
		t.Fatalf("hops = %d, want 2", delivered[0].Hops)
	}
}

// TestDelayGrowsWithTableSize: the matching-delay term must scale with the
// broker's subscription count, per the paper's linear model.
func TestDelayGrowsWithTableSize(t *testing.T) {
	mk := func(extraSubs int) float64 {
		net := NewNetwork()
		delay := message.MatchingDelayFn{PerSub: 0.001, Base: 0.001}
		if _, err := net.AddBroker(broker.Config{ID: "B0", URL: "B0", Delay: delay, OutputBandwidth: 1e6}); err != nil {
			t.Fatal(err)
		}
		if _, err := net.AttachClient("pub", "B0"); err != nil {
			t.Fatal(err)
		}
		if _, err := net.AttachClient("sub", "B0"); err != nil {
			t.Fatal(err)
		}
		adv := message.NewAdvertisement("A", "pub", nil)
		if err := net.SendFromClient("pub", &message.Envelope{Kind: message.KindAdvertisement, Adv: adv}); err != nil {
			t.Fatal(err)
		}
		if err := net.SendFromClient("sub", &message.Envelope{
			Kind: message.KindSubscription,
			Sub:  message.NewSubscription("s-main", "sub", nil),
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < extraSubs; i++ {
			id := string(rune('a' + i))
			if _, err := net.AttachClient("c"+id, "B0"); err != nil {
				t.Fatal(err)
			}
			if err := net.SendFromClient("c"+id, &message.Envelope{
				Kind: message.KindSubscription,
				Sub: message.NewSubscription("s-"+id, "c"+id, []message.Predicate{
					message.Pred("never", message.OpEq, message.String("match")),
				}),
			}); err != nil {
				t.Fatal(err)
			}
		}
		deliveries := collect(net)
		pub := message.NewPublication("A", 1, map[string]message.Value{"x": message.Number(1)})
		if err := net.SendFromClient("pub", &message.Envelope{Kind: message.KindPublication, Pub: pub}); err != nil {
			t.Fatal(err)
		}
		return deliveries["sub"][0].Delay
	}
	small := mk(0)
	big := mk(20)
	if big <= small {
		t.Fatalf("delay with 21 subs (%.6f) not above delay with 1 sub (%.6f)", big, small)
	}
	// The difference should be ~20 * PerSub = 20 ms.
	if diff := big - small; math.Abs(diff-0.020) > 1e-9 {
		t.Fatalf("delay difference = %.6f s, want 0.020 s", diff)
	}
}
