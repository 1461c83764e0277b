package deploy_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/croc"
	"github.com/greenps/greenps/internal/deploy"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/topology"
)

// liveCluster brings up a 4-broker chain with one publisher and two
// subscribers and returns the deployment plus the delivery channels.
func liveCluster(t *testing.T) (*deploy.Deployment, map[string]<-chan *message.Publication) {
	t.Helper()
	d := deploy.New()
	t.Cleanup(d.Close)
	for i := 0; i < 4; i++ {
		if err := d.StartBroker(broker.NodeConfig{
			ID:              fmt.Sprintf("B%d", i),
			ListenAddr:      "127.0.0.1:0",
			Delay:           message.MatchingDelayFn{PerSub: 0.0001, Base: 0.001},
			OutputBandwidth: 1 << 20,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 4; i++ {
		if err := d.Link(fmt.Sprintf("B%d", i-1), fmt.Sprintf("B%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	adv := message.NewAdvertisement("ADV-YHOO", "pub1", []message.Predicate{
		message.Pred("symbol", message.OpEq, message.String("YHOO")),
	})
	if err := d.AddPublisher("pub1", "B0", adv); err != nil {
		t.Fatal(err)
	}
	chans := make(map[string]<-chan *message.Publication)
	for i, b := range []string{"B2", "B3"} {
		subID := fmt.Sprintf("s%d", i)
		sub := message.NewSubscription(subID, "sub"+subID, []message.Predicate{
			message.Pred("symbol", message.OpEq, message.String("YHOO")),
		})
		ch, err := d.AddSubscriber("sub"+subID, b, sub)
		if err != nil {
			t.Fatal(err)
		}
		chans[subID] = ch
	}
	time.Sleep(500 * time.Millisecond) // routing settle
	return d, chans
}

// publishAndExpect publishes one quote and requires every subscriber to
// receive it.
func publishAndExpect(t *testing.T, d *deploy.Deployment, seq int, chans map[string]<-chan *message.Publication) {
	t.Helper()
	pub := message.NewPublication("ADV-YHOO", seq, map[string]message.Value{
		"symbol": message.String("YHOO"),
		"low":    message.Number(float64(seq)),
	})
	if err := d.Publish("ADV-YHOO", pub); err != nil {
		t.Fatal(err)
	}
	for id, ch := range chans {
		select {
		case got := <-ch:
			if got.Seq != seq {
				t.Fatalf("%s received seq %d, want %d", id, got.Seq, seq)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s missed publication %d", id, seq)
		}
	}
}

// TestLiveReconfigurationEndToEnd is the paper's full operational flow over
// real TCP: deploy, profile, gather via BIR/BIA, plan with CRAM, apply the
// plan (re-instantiate brokers, reconnect clients), and keep delivering.
func TestLiveReconfigurationEndToEnd(t *testing.T) {
	d, chans := liveCluster(t)
	// Profile: a stream of publications fills the CBC bit vectors.
	for seq := 0; seq < 15; seq++ {
		publishAndExpect(t, d, seq, chans)
	}
	// Gather + plan.
	addr, err := d.BrokerAddr("B0")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := croc.Reconfigure(addr, core.Config{Algorithm: core.AlgCRAMIOS}, 15*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumBrokers() >= 4 {
		t.Fatalf("plan allocates %d brokers; tiny workload should consolidate", plan.NumBrokers())
	}
	// Apply: brokers re-instantiate, clients reconnect.
	if err := d.Apply(plan, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(d.RunningBrokers()); got != plan.NumBrokers() {
		t.Fatalf("%d brokers running after apply, plan says %d", got, plan.NumBrokers())
	}
	// Clients sit where the plan says.
	for _, subID := range []string{"s0", "s1"} {
		b, err := d.SubscriberBroker(subID)
		if err != nil {
			t.Fatal(err)
		}
		if want := plan.Subscribers[subID]; b != want {
			t.Fatalf("subscription %s on %s, plan says %s", subID, b, want)
		}
	}
	pb, err := d.PublisherBroker("ADV-YHOO")
	if err != nil {
		t.Fatal(err)
	}
	if want := plan.Publishers["ADV-YHOO"]; pb != want {
		t.Fatalf("publisher on %s, plan says %s", pb, want)
	}
	// Deliveries continue on the consolidated system, same channels.
	time.Sleep(500 * time.Millisecond)
	for seq := 100; seq < 105; seq++ {
		publishAndExpect(t, d, seq, chans)
	}
}

func TestApplyOnClosedDeploymentFails(t *testing.T) {
	d := deploy.New()
	d.Close()
	if err := d.Apply(&core.Plan{}, nil); err == nil {
		t.Fatal("apply on closed deployment accepted")
	}
	d.Close() // idempotent
}

// TestClosedDeploymentRefusesNewWork: a closed deployment starts no broker
// and attaches no client, since nothing would ever stop them.
func TestClosedDeploymentRefusesNewWork(t *testing.T) {
	d := deploy.New()
	if err := d.StartBroker(broker.NodeConfig{ID: "B0", ListenAddr: "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if err := d.StartBroker(broker.NodeConfig{ID: "late", ListenAddr: "127.0.0.1:0"}); err == nil {
		t.Error("StartBroker on a closed deployment accepted")
	}
	if running := d.RunningBrokers(); slices.Contains(running, "late") {
		t.Errorf("a closed deployment reports %v running", running)
	}
	if err := d.AddPublisher("p", "B0", message.NewAdvertisement("A", "p", nil)); err == nil {
		t.Error("AddPublisher on a closed deployment accepted")
	}
	if _, err := d.AddSubscriber("c", "B0", message.NewSubscription("s", "c", nil)); err == nil {
		t.Error("AddSubscriber on a closed deployment accepted")
	}
}

func TestFromTopology(t *testing.T) {
	topo := `
broker TB0 addr=127.0.0.1:0 bw=1000000 delay=0.0001,0.001
broker TB1 addr=127.0.0.1:0 bw=1000000 delay=0.0001,0.001
link TB0 TB1
publisher tpub broker=TB0 adv="[symbol,=,'X']"
subscriber tsub broker=TB1 filter="[symbol,=,'X']"
`
	f, err := topology.Parse(strings.NewReader(topo))
	if err != nil {
		t.Fatal(err)
	}
	d := deploy.New()
	defer d.Close()
	if err := d.FromTopology(f); err != nil {
		t.Fatal(err)
	}
	if got := len(d.RunningBrokers()); got != 2 {
		t.Fatalf("running brokers = %d", got)
	}
	time.Sleep(400 * time.Millisecond)
	pub := message.NewPublication("ADV-tpub", 1, map[string]message.Value{
		"symbol": message.String("X"),
	})
	if err := d.Publish("ADV-tpub", pub); err != nil {
		t.Fatal(err)
	}
	// FromTopology discards subscriber channels; delivery is verified via
	// broker counters instead: B1 must have forwarded to its client.
	deadline := time.After(10 * time.Second)
	for {
		infos, err := croc.Gather(mustAddr(t, d, "TB1"), 5*time.Second)
		if err == nil {
			bits := 0
			for _, bi := range infos {
				for _, si := range bi.Subscriptions {
					bits += si.Profile.Count()
				}
			}
			if bits >= 1 {
				return // profiled delivery observed
			}
		}
		select {
		case <-deadline:
			t.Fatal("publication never delivered/profiled")
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func mustAddr(t *testing.T, d *deploy.Deployment, id string) string {
	t.Helper()
	addr, err := d.BrokerAddr(id)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestDuplicateRegistrationsRejected(t *testing.T) {
	d := deploy.New()
	defer d.Close()
	if err := d.StartBroker(broker.NodeConfig{ID: "B0", ListenAddr: "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	if err := d.StartBroker(broker.NodeConfig{ID: "B0", ListenAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("duplicate broker accepted")
	}
	adv := message.NewAdvertisement("A", "p", nil)
	if err := d.AddPublisher("p", "B0", adv); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPublisher("p2", "B0", adv); err == nil {
		t.Fatal("duplicate advertisement accepted")
	}
	sub := message.NewSubscription("s", "c", nil)
	if _, err := d.AddSubscriber("c", "B0", sub); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddSubscriber("c2", "B0", sub); err == nil {
		t.Fatal("duplicate subscription accepted")
	}
	if err := d.Link("B0", "B9"); err == nil {
		t.Fatal("link to unknown broker accepted")
	}
	if _, err := d.BrokerAddr("B9"); err == nil {
		t.Fatal("unknown broker addr accepted")
	}
	if err := d.Publish("nope", nil); err == nil {
		t.Fatal("publish under unknown advertisement accepted")
	}
}
