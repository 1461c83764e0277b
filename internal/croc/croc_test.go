package croc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/client"
	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/croc"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/sim"
	"github.com/greenps/greenps/internal/workload"
)

// liveOverlay starts a live 4-broker chain with one publisher (20 quotes)
// and three subscribers, its brokers profiling at the given capacity (0 =
// the default), and returns the first broker's address.
func liveOverlay(t *testing.T, capacity int) string {
	t.Helper()
	var nodes []*broker.Node
	for i := 0; i < 4; i++ {
		n, err := broker.StartNode(broker.NodeConfig{
			ID:              fmt.Sprintf("LB%d", i),
			ListenAddr:      "127.0.0.1:0",
			Delay:           message.MatchingDelayFn{PerSub: 0.0001, Base: 0.001},
			OutputBandwidth: 1 << 20,
			ProfileCapacity: capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		t.Cleanup(n.Stop)
	}
	for i := 1; i < 4; i++ {
		if err := nodes[i-1].ConnectNeighbor(nodes[i].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	var clients []*client.Client
	t.Cleanup(func() {
		for _, c := range clients {
			_ = c.Close()
		}
	})
	for i := 0; i < 3; i++ {
		c, err := client.Connect(fmt.Sprintf("sub%d", i), nodes[i+1].Addr())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		preds := []message.Predicate{
			message.Pred("symbol", message.OpEq, message.String("YHOO")),
		}
		if i == 2 {
			preds = append(preds, message.Pred("low", message.OpLt, message.Number(10)))
		}
		if err := c.Subscribe(message.NewSubscription(fmt.Sprintf("s%d", i),
			fmt.Sprintf("sub%d", i), preds)); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := client.Connect("pub1", nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	clients = append(clients, pub)
	if err := pub.Advertise(message.NewAdvertisement("ADV-YHOO", "pub1", []message.Predicate{
		message.Pred("symbol", message.OpEq, message.String("YHOO")),
	})); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // routing settle
	for i := 0; i < 20; i++ {
		if err := pub.Publish("ADV-YHOO", map[string]message.Value{
			"symbol": message.String("YHOO"),
			"low":    message.Number(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond) // delivery settle
	return nodes[0].Addr()
}

func TestGatherLive(t *testing.T) {
	addr := liveOverlay(t, 0)
	infos, err := croc.Gather(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 4 {
		t.Fatalf("gathered %d broker infos, want 4", len(infos))
	}
	subs, pubs, bits := 0, 0, 0
	for _, bi := range infos {
		subs += len(bi.Subscriptions)
		pubs += len(bi.Publishers)
		for _, si := range bi.Subscriptions {
			bits += si.Profile.Count()
		}
	}
	if subs != 3 || pubs != 1 {
		t.Fatalf("gathered %d subs / %d pubs, want 3/1", subs, pubs)
	}
	// Two full-stream subscriptions saw 20 each; the low<10 one saw 10.
	if bits != 50 {
		t.Fatalf("profile bits = %d, want 50", bits)
	}
}

func TestReconfigureLive(t *testing.T) {
	addr := liveOverlay(t, 0)
	plan, err := croc.Reconfigure(addr, core.Config{Algorithm: core.AlgCRAMIOS}, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumBrokers() != 1 {
		t.Fatalf("tiny workload should consolidate to 1 broker, got %d", plan.NumBrokers())
	}
	// Rendering round trips.
	var human bytes.Buffer
	if err := croc.Render(&human, plan); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(human.String(), "CRAM") {
		t.Fatalf("render missing algorithm: %s", human.String())
	}
	var js bytes.Buffer
	if err := croc.WriteJSON(&js, plan); err != nil {
		t.Fatal(err)
	}
	var doc croc.PlanDoc
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Root != plan.Tree.Root || len(doc.Brokers) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
}

// TestReconfigureLiveAtProfileBits: brokers profiling at 640 bits, as
// psbroker -profile-bits 640 runs them, report every client, and are planned
// under a Config that names no capacity: the plan reads it from the gathered
// BIA, and verifies. Verify checks the plan against the gather only, so the
// gather's own counts are checked here.
func TestReconfigureLiveAtProfileBits(t *testing.T) {
	infos, err := croc.Gather(liveOverlay(t, 640), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	subs, pubs := 0, 0
	for _, bi := range infos {
		subs += len(bi.Subscriptions)
		pubs += len(bi.Publishers)
	}
	if subs != 3 || pubs != 1 {
		t.Fatalf("gathered %d subs / %d pubs, want 3/1", subs, pubs)
	}
	if _, err := croc.Plan(infos, core.Config{Algorithm: core.AlgCRAMIOS}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPlanRefusesOverloadedPlan: croc.Plan hands out a plan only when
// core.Verify accepts it. PAIRWISE-K places clusters with no capacity test,
// and on this scenario its plan sends 11,978.5 B/s from broker B001, whose
// limit is 8,000 B/s: croc refuses it, naming the check and the broker,
// while CRAM-IOS's plan of the same BIA is handed out.
func TestPlanRefusesOverloadedPlan(t *testing.T) {
	o := workload.Defaults()
	o.Brokers, o.Publishers, o.SubsPerPublisher, o.BaseBandwidth = 32, 10, 60, 8_000
	sc, err := workload.Build("golden", o)
	if err != nil {
		t.Fatal(err)
	}
	_, infos, err := sim.Prepare(sc, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := croc.Plan(infos, core.Config{Algorithm: core.AlgCRAMIOS, Seed: 1}, nil); err != nil {
		t.Fatalf("CRAM-IOS: %v", err)
	}
	_, err = croc.Plan(infos, core.Config{Algorithm: core.AlgPairwiseK, Seed: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), `capacity: broker "B001"`) {
		t.Fatalf("PAIRWISE-K: croc.Plan = %v, want a capacity refusal naming B001", err)
	}
}

func TestGatherTimeout(t *testing.T) {
	// A lone broker answers fine; an unreachable address errors.
	if _, err := croc.Gather("127.0.0.1:1", 500*time.Millisecond); err == nil {
		t.Fatal("unreachable broker accepted")
	}
}
