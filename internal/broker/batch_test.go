package broker_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/telemetry"
)

// describeOutgoing renders an Outgoing compactly for comparison: the
// destination, the carried hop count, and the payload identity.
func describeOutgoing(o broker.Outgoing) string {
	id := ""
	switch o.Env.Kind {
	case message.KindPublication:
		id = fmt.Sprintf("pub adv=%s seq=%d hops=%d", o.Env.Pub.AdvID, o.Env.Pub.Seq, o.Hops)
	case message.KindSubscription:
		id = "sub " + o.Env.Sub.ID
	case message.KindUnsubscription:
		id = "unsub " + o.Env.UnsubID
	case message.KindAdvertisement:
		id = "adv " + o.Env.Adv.ID
	case message.KindUnadvertisement:
		id = "unadv " + o.Env.UnadvID
	default:
		id = o.Env.Kind.String()
	}
	return o.To.String() + " <- " + id
}

// batchWorkload builds a mixed envelope sequence over the standard
// throughput core: publications (matching and non-matching) interleaved
// with control traffic, from both broker and client endpoints.
func batchWorkload() []broker.Inbound {
	n2 := broker.Endpoint{Kind: broker.KindBroker, ID: "n2"}
	pubc := broker.Endpoint{Kind: broker.KindClient, ID: "pubc"}
	var msgs []broker.Inbound
	pub := func(from broker.Endpoint, seq int, sym string) {
		msgs = append(msgs, broker.Inbound{From: from, Env: &message.Envelope{
			Kind: message.KindPublication,
			Pub: message.NewPublication("ADV-T", seq, map[string]message.Value{
				"symbol": message.String(sym),
				"price":  message.Number(float64(seq)),
			}),
		}})
	}
	for i := 0; i < 20; i++ {
		pub(n2, i, benchSymbol(i%100))
	}
	pub(pubc, 20, "UNKNOWN") // unmatched: no subscription covers it
	// A control message splits the publication runs.
	msgs = append(msgs, broker.Inbound{From: n2, Env: &message.Envelope{
		Kind: message.KindSubscription,
		Sub: message.NewSubscription("sub-batch-extra", "n2", []message.Predicate{
			message.Pred("symbol", message.OpEq, message.String(benchSymbol(7))),
		}),
	}})
	for i := 21; i < 40; i++ {
		pub(pubc, i, benchSymbol(i%100))
	}
	msgs = append(msgs, broker.Inbound{From: n2, Env: &message.Envelope{
		Kind: message.KindUnsubscription, UnsubID: "sub-batch-extra",
	}})
	pub(n2, 40, benchSymbol(7))
	return msgs
}

// TestHandleBatchMatchesSequentialHandle drives the same mixed workload
// through one HandleBatch call and through N sequential Handle calls on
// identically built cores, and requires identical emissions (order
// included), traffic counters, and instrument values.
func TestHandleBatchMatchesSequentialHandle(t *testing.T) {
	regSeq := telemetry.New(nil)
	regBat := telemetry.New(nil)
	seqCore := throughputCore(t, broker.NewInstruments(regSeq))
	batCore := throughputCore(t, broker.NewInstruments(regBat))
	msgs := batchWorkload()

	var seqOut []broker.Outgoing
	for _, m := range msgs {
		var err error
		seqOut, err = seqCore.Handle(m.From, m.Env, seqOut)
		if err != nil {
			t.Fatal(err)
		}
	}
	batOut, err := batCore.HandleBatch(msgs, nil)
	if err != nil {
		t.Fatal(err)
	}

	if len(seqOut) != len(batOut) {
		t.Fatalf("emission count: sequential %d, batch %d", len(seqOut), len(batOut))
	}
	for i := range seqOut {
		s, b := describeOutgoing(seqOut[i]), describeOutgoing(batOut[i])
		if s != b {
			t.Fatalf("emission %d differs:\nsequential: %s\nbatch:      %s", i, s, b)
		}
	}
	if seqCore.Counters() != batCore.Counters() {
		t.Fatalf("counters differ:\nsequential: %+v\nbatch:      %+v",
			seqCore.Counters(), batCore.Counters())
	}
	for _, name := range []string{
		"greenps_broker_msgs_in_total",
		"greenps_broker_msgs_out_total",
		"greenps_broker_bytes_in_total",
		"greenps_broker_bytes_out_total",
		"greenps_broker_pubs_matched_total",
		"greenps_broker_pubs_unmatched_total",
		"greenps_broker_pubs_forwarded_total",
		"greenps_broker_pubs_delivered_total",
	} {
		s := counterValueTB(t, regSeq, name)
		b := counterValueTB(t, regBat, name)
		if s != b {
			t.Errorf("instrument %s: sequential %d, batch %d", name, s, b)
		}
	}
}

// TestInboundSizeStandsInForTheWalk: a batch whose publications carry
// their size from an earlier hop emits, counts and meters exactly what
// the same batch does when the core walks every publication itself.
func TestInboundSizeStandsInForTheWalk(t *testing.T) {
	regWalked, regSized := telemetry.New(nil), telemetry.New(nil)
	walked := throughputCore(t, broker.NewInstruments(regWalked))
	sized := throughputCore(t, broker.NewInstruments(regSized))
	plain := batchWorkload()
	carried := slices.Clone(plain)
	for i := range carried {
		if carried[i].Env.Kind == message.KindPublication {
			carried[i].Size = carried[i].Env.EncodedSize()
		}
	}
	want, err := walked.HandleBatch(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sized.HandleBatch(carried, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, want, func(a, b broker.Outgoing) bool { return describeOutgoing(a) == describeOutgoing(b) }) {
		t.Fatalf("carried sizes emitted %d messages, walked %d, or in another order", len(got), len(want))
	}
	if sized.Counters() != walked.Counters() {
		t.Fatalf("counters: carried %+v, walked %+v", sized.Counters(), walked.Counters())
	}
	const bytesIn = "greenps_broker_bytes_in_total"
	if a, b := counterValueTB(t, regSized, bytesIn), counterValueTB(t, regWalked, bytesIn); a != b || a == 0 {
		t.Fatalf("%s: carried %d, walked %d", bytesIn, a, b)
	}
	a, b := sized.Info().Publishers, walked.Info().Publishers
	if len(a) != len(b) {
		t.Fatalf("carried sizes metered %d publishers, walked %d", len(a), len(b))
	}
	for i := range a {
		if *a[i].Stats != *b[i].Stats {
			t.Errorf("publisher %s: carried %+v, walked %+v", a[i].Adv.ID, *a[i].Stats, *b[i].Stats)
		}
	}
	// A local publisher is metered in publication bytes, envelope excluded.
	msgs, bytes := 0, 0
	for _, m := range plain {
		if m.Env.Kind == message.KindPublication && m.From.Kind == broker.KindClient {
			msgs++
			bytes += m.Env.Pub.EncodedSize()
		}
	}
	st := a[0].Stats
	if got, want := st.Bandwidth/st.Rate, float64(bytes)/float64(msgs); msgs == 0 || math.Abs(got-want) > 1e-9*want {
		t.Errorf("publisher %s metered %.3f bytes per publication, want %.3f", a[0].Adv.ID, got, want)
	}
}

// counterValueTB reads one counter's value from a registry snapshot.
func counterValueTB(t testing.TB, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("counter %s not found", name)
	return 0
}

// TestAdvertisementReforwardDeterministic is the regression test for
// the nondeterministic subscription re-forwarding order: a broker
// receiving an advertisement re-forwards its intersecting subscriptions
// toward the advertiser, and used to do so in map iteration order,
// breaking byte-identical simulator runs. Two identically configured
// cores (with insertions applied in different orders) must emit the
// identical sequence, sorted by subscription ID.
func TestAdvertisementReforwardDeterministic(t *testing.T) {
	build := func(reverse bool) *broker.Core {
		c, err := broker.New(broker.Config{
			ID:    "B0",
			Delay: message.MatchingDelayFn{Base: 0.001},
			Clock: func() float64 { return 0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		c.AddNeighbor("B1")
		c.AddNeighbor("B2")
		b1 := broker.Endpoint{Kind: broker.KindBroker, ID: "B1"}
		n := 100
		for i := 0; i < n; i++ {
			k := i
			if reverse {
				k = n - 1 - i
			}
			sub := message.NewSubscription(fmt.Sprintf("s-%03d", k), "cl", nil)
			if _, err := c.Handle(b1, &message.Envelope{Kind: message.KindSubscription, Sub: sub}, nil); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	emit := func(c *broker.Core) []string {
		adv := message.NewAdvertisement("ADV-D", "p", nil)
		out, err := c.Handle(broker.Endpoint{Kind: broker.KindBroker, ID: "B2"},
			&message.Envelope{Kind: message.KindAdvertisement, Adv: adv}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var subs []string
		for _, o := range out {
			if o.Env.Kind == message.KindSubscription {
				subs = append(subs, o.Env.Sub.ID)
			}
		}
		return subs
	}
	a := emit(build(false))
	b := emit(build(true))
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("re-forward counts: %d and %d, want 100", len(a), len(b))
	}
	for i := range a {
		want := fmt.Sprintf("s-%03d", i)
		if a[i] != want || b[i] != want {
			t.Fatalf("emission %d: got %q and %q, want %q (sorted by subscription ID)", i, a[i], b[i], want)
		}
	}
}

// TestUnsubscriptionForwardOrderDeterministic is the regression test for
// unsubscriptions emitted in map order: a subscription forwarded to three
// neighbors must be withdrawn from them in neighbor-ID order on every run.
func TestUnsubscriptionForwardOrderDeterministic(t *testing.T) {
	for run := 0; run < 50; run++ {
		c, err := broker.New(broker.Config{ID: "B0", Delay: message.MatchingDelayFn{Base: 0.001}, Clock: func() float64 { return 0 }})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"B3", "B1", "B2"} {
			c.AddNeighbor(n)
			adv := message.NewAdvertisement("ADV-"+n, "p", nil)
			if _, err := c.Handle(broker.Endpoint{Kind: broker.KindBroker, ID: n}, &message.Envelope{Kind: message.KindAdvertisement, Adv: adv}, nil); err != nil {
				t.Fatal(err)
			}
		}
		cl := broker.Endpoint{Kind: broker.KindClient, ID: "cl"}
		c.AddClient(cl.ID)
		sub := message.NewSubscription("s", cl.ID, nil)
		if _, err := c.Handle(cl, &message.Envelope{Kind: message.KindSubscription, Sub: sub}, nil); err != nil {
			t.Fatal(err)
		}
		out, err := c.Handle(cl, &message.Envelope{Kind: message.KindUnsubscription, UnsubID: "s"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, o := range out {
			got = append(got, describeOutgoing(o))
		}
		if want := []string{"broker:B1 <- unsub s", "broker:B2 <- unsub s", "broker:B3 <- unsub s"}; !slices.Equal(got, want) {
			t.Fatalf("run %d: emitted %v, want %v", run, got, want)
		}
	}
}

// TestBrokerSteadyStateAllocationFree pins the steady-state publication
// path — batched and per-call, instrumented and not — at zero
// allocations per run: publications flow through matching, CBC
// profiling, and fan-out emission without touching the allocator. It
// names HandleBatch, Handle, accountIn, accountOut, handlePublicationRun,
// routeGroup, collectMatch, flushThrough and flushPublication. The
// publications arrive from n2, which no subscription came from, and from
// n1, whose route group every run therefore starts closed.
func TestBrokerSteadyStateAllocationFree(t *testing.T) {
	for _, variant := range []struct {
		name string
		inst *broker.Instruments
	}{
		{"noop", nil},
		{"instrumented", broker.NewInstruments(telemetry.New(nil))},
	} {
		for _, arrival := range []struct{ id, suffix string }{{"n2", ""}, {"n1", "-closed-arrival"}} {
			from := broker.Endpoint{Kind: broker.KindBroker, ID: arrival.id}
			t.Run(variant.name+"/batch"+arrival.suffix, func(t *testing.T) {
				c := throughputCore(t, variant.inst)
				envs := throughputEnvelopes()
				batch := make([]broker.Inbound, len(envs))
				for i := range envs {
					batch[i] = broker.Inbound{From: from, Env: envs[i]}
				}
				out := make([]broker.Outgoing, 0, 8*len(envs))
				if avg := testing.AllocsPerRun(50, func() {
					var err error
					out, err = c.HandleBatch(batch, out[:0])
					if err != nil {
						t.Fatal(err)
					}
				}); avg != 0 {
					t.Errorf("HandleBatch allocates %.2f times per batch, want 0", avg)
				}
			})
			t.Run(variant.name+"/percall"+arrival.suffix, func(t *testing.T) {
				c := throughputCore(t, variant.inst)
				envs := throughputEnvelopes()
				out := make([]broker.Outgoing, 0, 16)
				// Warm the path once per distinct publication: first-touch
				// work (CBC profile bits, scratch growth) is setup cost, not
				// steady state.
				for _, env := range envs {
					var err error
					out, err = c.Handle(from, env, out[:0])
					if err != nil {
						t.Fatal(err)
					}
				}
				i := 0
				if avg := testing.AllocsPerRun(500, func() {
					var err error
					out, err = c.Handle(from, envs[i%len(envs)], out[:0])
					if err != nil {
						t.Fatal(err)
					}
					i++
				}); avg != 0 {
					t.Errorf("Handle allocates %.2f times per publication, want 0", avg)
				}
			})
		}
	}
}
