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
	if err := plan.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.NumBrokers() != 1 {
		t.Fatalf("tiny workload should consolidate to 1 broker, got %d", plan.NumBrokers())
	}
	if len(plan.Subscribers) != 3 || len(plan.Publishers) != 1 {
		t.Fatalf("plan places %d subs / %d pubs", len(plan.Subscribers), len(plan.Publishers))
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
// psbroker -profile-bits 640 runs them, are planned under a Config that
// names no capacity: the plan reads it from the gathered BIA.
func TestReconfigureLiveAtProfileBits(t *testing.T) {
	addr := liveOverlay(t, 640)
	plan, err := croc.Reconfigure(addr, core.Config{Algorithm: core.AlgCRAMIOS}, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(plan.Subscribers) != 3 || len(plan.Publishers) != 1 {
		t.Fatalf("plan places %d subs / %d pubs", len(plan.Subscribers), len(plan.Publishers))
	}
}

func TestGatherTimeout(t *testing.T) {
	// A lone broker answers fine; an unreachable address errors.
	if _, err := croc.Gather("127.0.0.1:1", 500*time.Millisecond); err == nil {
		t.Fatal("unreachable broker accepted")
	}
}
