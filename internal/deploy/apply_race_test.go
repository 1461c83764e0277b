package deploy_test

import (
	"sync"
	"testing"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/deploy"
	"github.com/greenps/greenps/internal/grape"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/overlaybuild"
)

// consolidationPlan hand-builds the smallest valid plan: everything moves
// to a single fresh instance of root.
func consolidationPlan(root, advID, subID string) *core.Plan {
	return &core.Plan{
		Algorithm: "test",
		Tree: &overlaybuild.Tree{
			Root:     root,
			Children: map[string][]string{},
			Specs:    map[string]*allocation.BrokerSpec{root: nil},
		},
		Subscribers: map[string]string{subID: root},
		Publishers:  grape.Placement{advID: root},
	}
}

// TestReadAccessorsDuringApply pins the Apply locking fix: the apply
// path used to write ps.broker/ss.conn with no lock held while
// PublisherBroker/SubscriberBroker read them under d.mu, a data race and a
// torn-read window. Readers now hammer the accessors throughout two
// reconfigurations; the race detector checks the synchronization and the
// assertions check that no reader ever observes a half-applied state.
func TestReadAccessorsDuringApply(t *testing.T) {
	d := deploy.New()
	defer d.Close()
	for _, id := range []string{"B0", "B1"} {
		if err := d.StartBroker(broker.NodeConfig{
			ID:              id,
			ListenAddr:      "127.0.0.1:0",
			Delay:           message.MatchingDelayFn{PerSub: 0.0001, Base: 0.001},
			OutputBandwidth: 1 << 20,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Link("B0", "B1"); err != nil {
		t.Fatal(err)
	}
	adv := message.NewAdvertisement("A", "p", []message.Predicate{
		message.Pred("symbol", message.OpEq, message.String("X")),
	})
	if err := d.AddPublisher("p", "B0", adv); err != nil {
		t.Fatal(err)
	}
	sub := message.NewSubscription("s", "c", []message.Predicate{
		message.Pred("symbol", message.OpEq, message.String("X")),
	})
	if _, err := d.AddSubscriber("c", "B1", sub); err != nil {
		t.Fatal(err)
	}

	valid := map[string]bool{"B0": true, "B1": true}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pb, err := d.PublisherBroker("A")
				if err != nil || !valid[pb] {
					t.Errorf("PublisherBroker = %q, %v", pb, err)
					return
				}
				sb, err := d.SubscriberBroker("s")
				if err != nil || !valid[sb] {
					t.Errorf("SubscriberBroker = %q, %v", sb, err)
					return
				}
				for _, id := range d.RunningBrokers() {
					if !valid[id] {
						t.Errorf("RunningBrokers returned %q", id)
						return
					}
				}
			}
		}()
	}

	// Two applies back to back: B0+B1 -> B0, then B0 -> B1 — the readers
	// overlap the whole start/link/reconnect/teardown sequence twice.
	if err := d.Apply(consolidationPlan("B0", "A", "s"), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(consolidationPlan("B1", "A", "s"), nil); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if pb, err := d.PublisherBroker("A"); err != nil || pb != "B1" {
		t.Fatalf("publisher on %q (%v) after apply, want B1", pb, err)
	}
	if sb, err := d.SubscriberBroker("s"); err != nil || sb != "B1" {
		t.Fatalf("subscription on %q (%v) after apply, want B1", sb, err)
	}
}
