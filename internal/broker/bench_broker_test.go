package broker_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/telemetry"
)

// throughputCore builds the standard single-broker throughput workload:
// a broker with two neighbor links and a routing table mixing
//
//   - 100 symbols x 4 local subscribers each (equality on "symbol"),
//   - 100 remote subscriptions reached via neighbor n1 (equality on
//     "symbol", one per symbol), so matching publications are forwarded,
//   - 200 range subscriptions on an attribute ("volume") the benchmark
//     publications never carry — pure index pressure, the common case of
//     a broker whose table is mostly irrelevant to any given event.
//
// Every benchmark publication carries {symbol, price} and therefore
// matches 4 local subscribers and 1 neighbor forward.
func throughputCore(tb testing.TB, inst *broker.Instruments) *broker.Core {
	tb.Helper()
	c, err := broker.New(broker.Config{
		ID:          "B0",
		URL:         "inproc://B0",
		Delay:       message.MatchingDelayFn{Base: 0.001},
		Clock:       func() float64 { return 0 },
		Instruments: inst,
	})
	if err != nil {
		tb.Fatal(err)
	}
	c.AddNeighbor("n1")
	c.AddNeighbor("n2")
	c.AddClient("pubc")
	pubEP := broker.Endpoint{Kind: broker.KindClient, ID: "pubc"}
	n1EP := broker.Endpoint{Kind: broker.KindBroker, ID: "n1"}
	adv := message.NewAdvertisement("ADV-T", "pubc", nil)
	if _, err := c.Handle(pubEP, &message.Envelope{Kind: message.KindAdvertisement, Adv: adv}, nil); err != nil {
		tb.Fatal(err)
	}
	addSub := func(from broker.Endpoint, id string, preds []message.Predicate) {
		sub := message.NewSubscription(id, from.ID, preds)
		if _, err := c.Handle(from, &message.Envelope{Kind: message.KindSubscription, Sub: sub}, nil); err != nil {
			tb.Fatal(err)
		}
	}
	for s := 0; s < 100; s++ {
		sym := benchSymbol(s)
		for k := 0; k < 4; k++ {
			clientID := fmt.Sprintf("cl-%03d-%d", s, k)
			c.AddClient(clientID)
			addSub(broker.Endpoint{Kind: broker.KindClient, ID: clientID},
				fmt.Sprintf("sub-loc-%03d-%d", s, k),
				[]message.Predicate{message.Pred("symbol", message.OpEq, message.String(sym))})
		}
		addSub(n1EP, fmt.Sprintf("sub-rem-%03d", s),
			[]message.Predicate{message.Pred("symbol", message.OpEq, message.String(sym))})
	}
	for i := 0; i < 200; i++ {
		clientID := fmt.Sprintf("rv-%03d", i)
		c.AddClient(clientID)
		addSub(broker.Endpoint{Kind: broker.KindClient, ID: clientID},
			fmt.Sprintf("sub-vol-%03d", i),
			[]message.Predicate{message.Pred("volume", message.OpGt, message.Number(float64(1000+i)))})
	}
	return c
}

func benchSymbol(s int) string { return fmt.Sprintf("SYM%03d", s) }

// throughputEnvelopes pre-builds one publication envelope per symbol so
// the benchmark loop measures the broker, not the message constructors.
func throughputEnvelopes() []*message.Envelope {
	envs := make([]*message.Envelope, 100)
	for s := range envs {
		envs[s] = &message.Envelope{Kind: message.KindPublication, Pub: message.NewPublication("ADV-T", s, map[string]message.Value{
			"symbol": message.String(benchSymbol(s)),
			"price":  message.Number(float64(s) + 0.5),
		})}
	}
	return envs
}

// benchPercall drives one publication per Handle call; b.N counts
// publications.
func benchPercall(b *testing.B, inst *broker.Instruments) {
	c := throughputCore(b, inst)
	envs := throughputEnvelopes()
	from := broker.Endpoint{Kind: broker.KindBroker, ID: "n2"}
	out := make([]broker.Outgoing, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = out[:0]
		var err error
		out, err = c.Handle(from, envs[i%len(envs)], out)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportMsgsPerSec(b)
}

// benchBatch drives the same workload through HandleBatch, one batch of
// 100 publications per call; b.N still counts publications.
func benchBatch(b *testing.B, inst *broker.Instruments) {
	c := throughputCore(b, inst)
	envs := throughputEnvelopes()
	from := broker.Endpoint{Kind: broker.KindBroker, ID: "n2"}
	batch := make([]broker.Inbound, len(envs))
	for i := range envs {
		batch[i] = broker.Inbound{From: from, Env: envs[i]}
	}
	out := make([]broker.Outgoing, 0, 8*len(envs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(batch) {
		out = out[:0]
		var err error
		out, err = c.HandleBatch(batch, out)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportMsgsPerSec(b)
}

// BenchmarkBrokerThroughput measures single-broker publication
// throughput (msgs/sec) through the core — one message per Handle call
// and batched through HandleBatch — with instrumentation disabled and
// enabled. The recorded trajectory lives in BENCH_broker.json; run
// TestWriteBrokerBenchJSON with BENCH_BROKER_JSON set to rewrite it.
func BenchmarkBrokerThroughput(b *testing.B) {
	for _, variant := range []struct {
		name string
		inst *broker.Instruments
	}{
		{"noop", nil},
		{"instrumented", broker.NewInstruments(telemetry.New(nil))},
	} {
		b.Run(variant.name+"/percall", func(b *testing.B) { benchPercall(b, variant.inst) })
		b.Run(variant.name+"/batch", func(b *testing.B) { benchBatch(b, variant.inst) })
	}
}

// forwardCore builds an intermediate broker of the paper's overlay: three
// neighbor links and 8,000 subscriptions of the paper's shape — the class,
// one of 40 symbols and, three in five, a bound on low — arriving round
// robin from the neighbors. forwardEnvelopes' publications arrive from n1,
// so every match behind n1 is the link they came in on, and n2 and n3
// each get one copy of a publication however many of their subscriptions
// it matches.
func forwardCore(tb testing.TB) *broker.Core {
	tb.Helper()
	c, err := broker.New(broker.Config{ID: "B0", Delay: message.MatchingDelayFn{Base: 0.001}, Clock: func() float64 { return 0 }})
	if err != nil {
		tb.Fatal(err)
	}
	links := []broker.Endpoint{{Kind: broker.KindBroker, ID: "n1"}, {Kind: broker.KindBroker, ID: "n2"}, {Kind: broker.KindBroker, ID: "n3"}}
	for _, l := range links {
		c.AddNeighbor(l.ID)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8000; i++ {
		preds := []message.Predicate{message.Pred("class", message.OpEq, message.String("STOCK")),
			message.Pred("symbol", message.OpEq, message.String(fmt.Sprintf("SYM%02d", i%40)))}
		if i%5 >= 2 {
			preds = append(preds, message.Pred("low", message.OpLt, message.Number(rng.Float64()*100)))
		}
		from := links[i%len(links)]
		sub := message.NewSubscription(fmt.Sprintf("s%04d", i), from.ID, preds)
		if _, err := c.Handle(from, &message.Envelope{Kind: message.KindSubscription, Sub: sub}, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// forwardEnvelopes builds 100 publications from n1 over the 40 symbols.
func forwardEnvelopes() []broker.Inbound {
	from := broker.Endpoint{Kind: broker.KindBroker, ID: "n1"}
	rng := rand.New(rand.NewSource(2))
	batch := make([]broker.Inbound, 100)
	for i := range batch {
		batch[i] = broker.Inbound{From: from, Env: &message.Envelope{Kind: message.KindPublication, Pub: message.NewPublication("ADV-T", i, map[string]message.Value{
			"class":  message.String("STOCK"),
			"symbol": message.String(fmt.Sprintf("SYM%02d", i%40)),
			"low":    message.Number(rng.Float64() * 100),
		})}}
	}
	return batch
}

// BenchmarkHandleBatchForward times HandleBatch on forwardCore, one batch
// of 100 publications per call; b.N counts publications.
func BenchmarkHandleBatchForward(b *testing.B) {
	c := forwardCore(b)
	batch := forwardEnvelopes()
	out := make([]broker.Outgoing, 0, 2*len(batch))
	emitted, pubs := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for ; pubs < b.N; pubs += len(batch) {
		var err error
		out, err = c.HandleBatch(batch, out[:0])
		if err != nil {
			b.Fatal(err)
		}
		emitted += len(out)
	}
	b.StopTimer()
	b.ReportMetric(float64(emitted)/float64(pubs), "out/pub")
}

// reportMsgsPerSec attaches a msgs/sec custom metric to the benchmark.
func reportMsgsPerSec(b *testing.B) {
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
	}
}

// benchRecord is one row of BENCH_broker.json.
type benchRecord struct {
	Name       string  `json:"name"`
	MsgsPerSec float64 `json:"msgs_per_sec"`
	NsPerOp    float64 `json:"ns_per_op"`
}

// writeBenchJSON rewrites BENCH_broker.json when BENCH_BROKER_JSON names
// a destination path.
func writeBenchJSON(tb testing.TB, records []benchRecord) {
	path := os.Getenv("BENCH_BROKER_JSON")
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// baselineRecord is the one-message-per-call, clone-per-copy,
// access-predicate-engine broker measured on this machine immediately
// before the batched hot path landed; it anchors the trajectory in
// BENCH_broker.json.
var baselineRecord = benchRecord{
	Name:       "baseline/percall (pre-batching, Engine+Clone fan-out)",
	MsgsPerSec: 148491,
	NsPerOp:    6734,
}

// TestWriteBrokerBenchJSON measures the current broker throughput
// variants and rewrites the BENCH_broker.json trajectory. Skipped
// unless BENCH_BROKER_JSON names the destination (CI's bench smoke
// sets it).
func TestWriteBrokerBenchJSON(t *testing.T) {
	if os.Getenv("BENCH_BROKER_JSON") == "" {
		t.Skip("BENCH_BROKER_JSON not set")
	}
	records := []benchRecord{baselineRecord}
	for _, variant := range []struct {
		name string
		inst *broker.Instruments
	}{
		{"noop", nil},
		{"instrumented", broker.NewInstruments(telemetry.New(nil))},
	} {
		for _, shape := range []struct {
			name string
			run  func(*testing.B, *broker.Instruments)
		}{
			{"percall", benchPercall},
			{"batch", benchBatch},
		} {
			inst := variant.inst
			r := testing.Benchmark(func(b *testing.B) { shape.run(b, inst) })
			records = append(records, benchRecord{
				Name:       variant.name + "/" + shape.name,
				MsgsPerSec: float64(r.N) / r.T.Seconds(),
				NsPerOp:    float64(r.NsPerOp()),
			})
		}
	}
	writeBenchJSON(t, records)
	batch := records[len(records)-1]
	if speedup := batch.MsgsPerSec / baselineRecord.MsgsPerSec; speedup < 5 {
		t.Errorf("batched throughput %.0f msgs/sec is only %.1fx the %.0f baseline, want >=5x",
			batch.MsgsPerSec, speedup, baselineRecord.MsgsPerSec)
	}
}
