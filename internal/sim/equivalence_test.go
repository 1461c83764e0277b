package sim

import (
	"fmt"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/client"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/workload"
)

// TestSimMatchesLiveDeployment runs the identical small scenario through
// the virtual-time simulator and through live TCP broker nodes, and checks
// that every subscriber receives exactly the same number of publications —
// the simulator and the live runtime execute the same broker core, so any
// divergence is a routing bug in one of the harnesses.
func TestSimMatchesLiveDeployment(t *testing.T) {
	o := workload.Defaults()
	o.Brokers = 4
	o.Publishers = 2
	o.SubsPerPublisher = 8
	o.Seed = 11
	sc, err := workload.Build("equivalence", o)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 25

	// --- Simulated run ---
	net, err := deployManual(sc, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	net.TracePaths = false
	simCounts := make(map[string]int)
	net.OnDelivery = func(d Delivery) { simCounts[d.ClientID]++ }
	if err := publishRounds(net, sc, 0, rounds, nil); err != nil {
		t.Fatal(err)
	}

	// --- Live run ---
	nodes := make(map[string]*broker.Node, len(sc.Brokers))
	addr := make(map[string]string, len(sc.Brokers))
	for _, b := range sc.Brokers {
		n, err := broker.StartNode(broker.NodeConfig{
			ID:         b.ID,
			ListenAddr: "127.0.0.1:0",
			Delay:      b.Delay,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		nodes[b.ID] = n
		addr[b.ID] = n.Addr()
	}
	for _, e := range sc.Tree {
		if err := nodes[e[0]].ConnectNeighbor(addr[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	liveCounts := make(map[string]int)
	done := make(chan string, 1024)
	var subClients []*client.Client
	for _, s := range sc.Subscribers {
		c, err := client.Connect(s.Sub.SubscriberID, addr[s.HomeBroker])
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		subClients = append(subClients, c)
		if err := c.Subscribe(s.Sub); err != nil {
			t.Fatal(err)
		}
		go func(id string, ch <-chan *message.Publication) {
			for range ch {
				done <- id
			}
		}(c.ID(), c.Publications())
	}
	var pubClients []*client.Client
	for i := range sc.Publishers {
		p := &sc.Publishers[i]
		c, err := client.Connect(p.ClientID, addr[p.HomeBroker])
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		pubClients = append(pubClients, c)
		if err := c.Advertise(p.Stock.Advertisement(p.AdvID, p.ClientID)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(500 * time.Millisecond) // routing settle
	for r := 0; r < rounds; r++ {
		for i := range sc.Publishers {
			p := &sc.Publishers[i]
			if err := pubClients[i].PublishAt(p.Stock.Publication(p.AdvID, r, r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Drain deliveries until the expected total arrives or times out.
	wantTotal := 0
	for _, n := range simCounts {
		wantTotal += n
	}
	deadline := time.After(15 * time.Second)
	got := 0
	for got < wantTotal {
		select {
		case id := <-done:
			liveCounts[id]++
			got++
		case <-deadline:
			t.Fatalf("live run delivered %d of %d publications", got, wantTotal)
		}
	}
	// No extras trickling in.
	time.Sleep(300 * time.Millisecond)
	for len(done) > 0 {
		id := <-done
		liveCounts[id]++
	}
	for _, s := range sc.Subscribers {
		id := s.Sub.SubscriberID
		if simCounts[id] != liveCounts[id] {
			t.Errorf("subscriber %s: sim=%d live=%d", id, simCounts[id], liveCounts[id])
		}
	}
	if t.Failed() {
		t.Logf("totals: sim=%d live=%v", wantTotal, fmt.Sprint(len(liveCounts)))
	}
}
