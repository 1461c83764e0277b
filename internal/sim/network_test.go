package sim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/workload"
)

// naiveMsg is one in-flight message of naiveSend.
type naiveMsg struct {
	to, from broker.Endpoint
	env      *message.Envelope
	delay    float64
}

// naiveSend is the reference Drain: a FIFO over the network's cores that
// resolves every destination by ID, hands each message to Core.Handle,
// which walks every publication it is given, copies a publication for
// every output and sizes every copy afresh.
func naiveSend(tb testing.TB, net *Network, clientID string, env *message.Envelope, deliver func(Delivery)) {
	tb.Helper()
	queue := []naiveMsg{{
		to:   broker.Endpoint{Kind: broker.KindBroker, ID: net.Client(clientID).Broker},
		from: broker.Endpoint{Kind: broker.KindClient, ID: clientID},
		env:  env,
	}}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		if m.to.Kind == broker.KindClient {
			if m.env.Kind == message.KindPublication {
				deliver(Delivery{ClientID: m.to.ID, Pub: m.env.Pub, Hops: m.env.Pub.Hops, Delay: m.delay})
			}
			continue
		}
		core := net.Broker(m.to.ID)
		arrival := m.delay + core.MatchingDelaySeconds()
		outs, err := core.Handle(m.from, m.env, nil)
		if err != nil {
			tb.Fatal(err)
		}
		for _, o := range outs {
			next := naiveMsg{to: o.To, from: broker.Endpoint{Kind: broker.KindBroker, ID: m.to.ID}, env: o.Env}
			if o.Env.Kind == message.KindPublication {
				pub := *o.Env.Pub
				pub.Hops = o.Hops
				next.env = &message.Envelope{Kind: message.KindPublication, Pub: &pub}
				next.delay = arrival + float64(next.env.EncodedSize())/core.OutputBandwidth()
				if o.To.Kind == broker.KindBroker {
					next.delay += DefaultLinkLatency
				}
			}
			queue = append(queue, next)
		}
	}
}

// TestDrainMatchesNaiveReplay holds Drain — the size carried from hop to
// hop, one hop copy per (envelope, hop count), destinations resolved to
// indices — to naiveSend on two deployments of one scenario: the same
// deliveries in the same order with the same hops and delays, the same
// counters on every broker and the same gathered broker information.
func TestDrainMatchesNaiveReplay(t *testing.T) {
	sc, err := workload.Build("naive-replay", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*Network, 2)
	logs := make([][]Delivery, 2)
	for i := range nets {
		if nets[i], err = deployManual(sc, 256, nil); err != nil {
			t.Fatal(err)
		}
		log := &logs[i]
		nets[i].OnDelivery = func(d Delivery) { *log = append(*log, d) }
	}
	const rounds = 30
	if err := publishRounds(nets[0], sc, 0, rounds); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		for i := range sc.Publishers {
			p := &sc.Publishers[i]
			env := &message.Envelope{Kind: message.KindPublication, Pub: p.Stock.Publication(p.AdvID, r, r)}
			naiveSend(t, nets[1], p.ClientID, env, nets[1].OnDelivery)
		}
		nets[1].Advance(1 / sc.Publishers[0].Rate)
	}
	if len(logs[0]) == 0 || len(logs[0]) != len(logs[1]) {
		t.Fatalf("Drain delivered %d publications, the reference %d", len(logs[0]), len(logs[1]))
	}
	for k := range logs[0] {
		d, ref := logs[0][k], logs[1][k]
		if d.ClientID != ref.ClientID || d.Hops != ref.Hops || d.Delay != ref.Delay ||
			d.Pub.AdvID != ref.Pub.AdvID || d.Pub.Seq != ref.Pub.Seq || d.Pub.EncodedSize() != ref.Pub.EncodedSize() {
			t.Fatalf("delivery %d: Drain %s %v hops=%d delay=%v, reference %s %v hops=%d delay=%v",
				k, d.ClientID, d.Pub, d.Hops, d.Delay, ref.ClientID, ref.Pub, ref.Hops, ref.Delay)
		}
	}
	for _, id := range nets[0].Brokers() {
		if got, want := nets[0].Broker(id).Counters(), nets[1].Broker(id).Counters(); got != want {
			t.Errorf("broker %s: Drain counted %+v, the reference %+v", id, got, want)
		}
	}
	var infos [2][]byte
	for i, net := range nets {
		gathered, err := GatherInfos(net, sc.Brokers[0].ID)
		if err != nil {
			t.Fatal(err)
		}
		if infos[i], err = json.Marshal(gathered); err != nil {
			t.Fatal(err)
		}
	}
	if string(infos[0]) != string(infos[1]) {
		t.Error("Drain and the reference gathered different broker information")
	}
}

// TestHopCopySizeIsAFreshWalk: the sim's per-hop copy carries the new hop
// count, shares the content and so the size of the envelope it copies,
// and leaves that envelope as it was.
func TestHopCopySizeIsAFreshWalk(t *testing.T) {
	pub := message.NewPublication("ADV", 3, map[string]message.Value{
		"class": message.String("STOCK"), "symbol": message.String("YHOO"), "low": message.Number(18.37)})
	pub.Hops = 2
	env := &message.Envelope{Kind: message.KindPublication, Pub: pub}
	size := env.EncodedSize()
	cp := withHops(env, 3)
	if cp.Pub.Hops != 3 || pub.Hops != 2 || cp.Pub == pub || cp.Validate() != nil {
		t.Fatalf("copy hops %d, original hops %d", cp.Pub.Hops, pub.Hops)
	}
	if got := cp.EncodedSize(); got != size {
		t.Fatalf("copy walks to %d bytes, the original to %d", got, size)
	}
	if !reflect.DeepEqual(cp.Pub.Attrs, pub.Attrs) || cp.Pub.AdvID != pub.AdvID || cp.Pub.Seq != pub.Seq {
		t.Fatalf("copy %v of %v", cp.Pub, pub)
	}
}

// TestPublicationHopSteadyStateAllocs pins the sim's publication hop: a
// broker that delivers to clients allocates nothing, and one that
// forwards to three neighbors allocates one hop copy for all three.
func TestPublicationHopSteadyStateAllocs(t *testing.T) {
	net := NewNetwork()
	delay := message.MatchingDelayFn{PerSub: 0.0001, Base: 0.001}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("B%d", i)
		if _, err := net.AddBroker(broker.Config{ID: id, URL: id, Delay: delay, OutputBandwidth: 1e6}); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := net.ConnectBrokers("B0", id); err != nil {
				t.Fatal(err)
			}
		}
	}
	send := func(client string, env *message.Envelope) {
		t.Helper()
		if err := net.SendFromClient(client, env); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AttachClient("pub", "B0"); err != nil {
		t.Fatal(err)
	}
	send("pub", &message.Envelope{Kind: message.KindAdvertisement, Adv: message.NewAdvertisement("A", "pub", nil)})
	subscribe := func(client, at string) {
		t.Helper()
		if _, err := net.AttachClient(client, at); err != nil {
			t.Fatal(err)
		}
		sub := message.NewSubscription("s-"+client, client, []message.Predicate{
			message.Pred("symbol", message.OpEq, message.String("YHOO"))})
		send(client, &message.Envelope{Kind: message.KindSubscription, Sub: sub})
	}
	subscribe("local", "B0")
	env := &message.Envelope{Kind: message.KindPublication, Pub: message.NewPublication("A", 0,
		map[string]message.Value{"symbol": message.String("YHOO"), "low": message.Number(18.37)})}
	publish := func() { send("pub", env) }
	publish() // grows the queue and every scratch buffer
	if n := testing.AllocsPerRun(100, publish); n != 0 {
		t.Errorf("a delivering hop allocates %.1f objects, want 0", n)
	}
	for _, at := range []string{"B1", "B2", "B3"} {
		subscribe("far-"+at, at)
	}
	delivered := 0
	net.OnDelivery = func(Delivery) { delivered++ }
	publish()
	net.OnDelivery = nil
	if delivered != 4 {
		t.Fatalf("publication delivered %d times, want 4", delivered)
	}
	if n := testing.AllocsPerRun(100, publish); n != 1 {
		t.Errorf("a hop forwarding to three neighbors allocates %.1f objects, want 1 hop copy", n)
	}
}

// BenchmarkPrepare times sim.Prepare, the Phase-1 profiling every plan
// starts from, on a paper-shaped scenario: the plan_paper8k generator at
// 20 brokers, 10 publishers and 40 subscriptions per publisher, profiled
// for 200 rounds. It reports the publication hops it ran.
func BenchmarkPrepare(b *testing.B) { benchPrepare(b, "prepare", 20, 10, 40) }

// BenchmarkPrepare8k is the set-up the benchmark's plan_paper8k times as
// setup_s: 80 brokers, 40 publishers with 200 subscriptions each, seed 1,
// profiled for 200 rounds.
func BenchmarkPrepare8k(b *testing.B) { benchPrepare(b, "plan_paper8k", 80, 40, 200) }

// benchPrepare times sim.Prepare for 200 rounds on the named paper-shaped
// scenario and reports the publication hops it ran.
func benchPrepare(b *testing.B, name string, brokers, publishers, subsPerPublisher int) {
	o := workload.Defaults()
	o.Brokers, o.Publishers, o.SubsPerPublisher = brokers, publishers, subsPerPublisher
	sc, err := workload.Build(name, o)
	if err != nil {
		b.Fatal(err)
	}
	hops := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, _, err := Prepare(sc, 200, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range net.Brokers() {
			hops += net.Broker(id).Counters().MsgsIn
		}
	}
	b.ReportMetric(float64(hops)/float64(b.N), "msgs/op")
}

// TestDrainRefusesUnlinkedNeighbor: a core's emissions resolve over the
// links ConnectBrokers made, so a neighbor the core was given any other
// way is no destination, even when the network has a broker of that ID,
// and the advertisement flooded to it fails as a message to an unknown
// broker.
func TestDrainRefusesUnlinkedNeighbor(t *testing.T) {
	net := NewNetwork()
	for _, id := range []string{"B1", "B2"} {
		if _, err := net.AddBroker(broker.Config{ID: id, URL: id, Delay: message.MatchingDelayFn{Base: 0.001}}); err != nil {
			t.Fatal(err)
		}
	}
	net.Broker("B1").AddNeighbor("B2")
	if _, err := net.AttachClient("pub", "B1"); err != nil {
		t.Fatal(err)
	}
	adv := &message.Envelope{Kind: message.KindAdvertisement, Adv: message.NewAdvertisement("A", "pub", nil)}
	if err := net.SendFromClient("pub", adv); err == nil || !strings.Contains(err.Error(), `unknown broker "B2"`) {
		t.Fatalf("advertisement to an unlinked neighbor: err = %v, want a message to unknown broker \"B2\"", err)
	}
}
