package broker

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/telemetry"
)

// Route script alphabets: a script subscribes, advertises and publishes
// from these clients and the first 1–4 of these neighbors.
var (
	routeClients   = []string{"c0", "c1", "c2"}
	routeNeighbors = []string{"n1", "n2", "n3", "n4"}
	routeAttrs     = []string{"class", "symbol", "low"}
	routeOps       = []message.Op{message.OpEq, message.OpNeq, message.OpLt, message.OpGt,
		message.OpPrefix, message.OpPresent, message.OpEq, message.OpEq}
	routeValues = []message.Value{message.String("A"), message.String("B"), message.String("AB"),
		message.Number(0), message.Number(1), message.Number(2), message.Bool(true), message.Number(math.NaN())}
	routeAdvs = []string{"ADV-0", "ADV-1", "ADV-2"}
)

// Route script opcodes; operands are bytes reduced modulo their alphabets.
const (
	routeSubscribe   byte = iota // endpoint, n, then n x (attr, op, value)
	routeUnsubscribe             // i: the i-th live subscription in ID order, or a ghost
	routeCompact                 //
	routePublish                 // m, then m x (endpoint, adv, hops, n, then n x (attr, value)): one HandleBatch run
	routeAdvertise               // endpoint, adv, n, then n x (attr, op, value)
	routeUnadvertise             // endpoint, adv
	routeOpcodes                 // the number of opcodes
)

// routeRef is the brute-force router FuzzRouteEquivalence holds Core to:
// every live subscription with its last hop, matched by
// Subscription.Matches, and the profile, counters and inbound bytes that
// implies; every live advertisement with the endpoint it came from; and the neighbors
// each subscription has been sent to, ascending.
type routeRef struct {
	subs      map[string]*message.Subscription
	hops      map[string]Endpoint
	profiles  map[string]*bitvector.Profile
	advs      map[string]advEntry
	fwd       map[string][]string
	neighbors []string
	counters  Counters
	bytesIn   int64
}

// flood returns a copy of a control envelope to every neighbor but the
// sender, in ID order.
func (r *routeRef) flood(from Endpoint, env *message.Envelope) []Outgoing {
	var out []Outgoing
	for _, n := range r.neighbors {
		if from != (Endpoint{Kind: KindBroker, ID: n}) {
			out = append(out, Outgoing{To: Endpoint{Kind: KindBroker, ID: n}, Env: env})
		}
	}
	return out
}

// forward records that subscription id goes to neighbor n and returns
// that copy, or nothing when it was sent there already.
func (r *routeRef) forward(id, n string) []Outgoing {
	if slices.Contains(r.fwd[id], n) {
		return nil
	}
	r.fwd[id] = append(r.fwd[id], n)
	slices.Sort(r.fwd[id])
	return []Outgoing{{To: Endpoint{Kind: KindBroker, ID: n}, Env: &message.Envelope{Kind: message.KindSubscription, Sub: r.subs[id]}}}
}

// subscribe indexes a new subscription and returns its copies: one to
// each neighbor behind an intersecting advertisement but its own hop, in
// ID order.
func (r *routeRef) subscribe(from Endpoint, sub *message.Subscription) []Outgoing {
	r.subs[sub.ID], r.hops[sub.ID] = sub, from
	if from.Kind == KindClient {
		r.profiles[sub.ID] = bitvector.NewProfile(0)
	}
	var targets []string
	for _, a := range r.advs {
		if a.from.Kind == KindBroker && a.from != from && a.adv.IntersectsSubscription(sub) {
			targets = append(targets, a.from.ID)
		}
	}
	slices.Sort(targets)
	var out []Outgoing
	for _, n := range slices.Compact(targets) {
		out = append(out, r.forward(sub.ID, n)...)
	}
	return out
}

// advertise stores a new advertisement and returns its flood, then — for
// one from a neighbor — every intersecting subscription not yet sent
// there and not from there, in ID order.
func (r *routeRef) advertise(from Endpoint, env *message.Envelope) []Outgoing {
	if _, dup := r.advs[env.Adv.ID]; dup {
		return nil
	}
	r.advs[env.Adv.ID] = advEntry{adv: env.Adv, from: from}
	out := r.flood(from, env)
	if from.Kind != KindBroker {
		return out
	}
	ids := make([]string, 0, len(r.subs))
	for id := range r.subs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if r.hops[id] != from && env.Adv.IntersectsSubscription(r.subs[id]) {
			out = append(out, r.forward(id, from.ID)...)
		}
	}
	return out
}

// unsubscribe drops a subscription and returns its removal, sent to
// exactly the neighbors the subscription went to, ascending.
func (r *routeRef) unsubscribe(env *message.Envelope) []Outgoing {
	id := env.UnsubID
	if _, ok := r.subs[id]; !ok {
		return nil
	}
	var out []Outgoing
	for _, n := range r.fwd[id] {
		out = append(out, Outgoing{To: Endpoint{Kind: KindBroker, ID: n}, Env: env})
	}
	delete(r.subs, id)
	delete(r.hops, id)
	delete(r.profiles, id)
	delete(r.fwd, id)
	return out
}

// outputs returns what a broker routing by the reference emits for one
// publication: a copy to every neighbor behind a matching subscription
// but the one it came from, in ID order, then one delivery per matching
// local subscription in client order. It records the local deliveries.
func (r *routeRef) outputs(from Endpoint, env *message.Envelope) []Outgoing {
	var fwd []string
	var deliv []Endpoint
	for id, sub := range r.subs {
		if !sub.Matches(env.Pub) {
			continue
		}
		switch hop := r.hops[id]; hop.Kind {
		case KindBroker:
			if from != hop && !slices.Contains(fwd, hop.ID) {
				fwd = append(fwd, hop.ID)
			}
		case KindClient:
			deliv = append(deliv, hop)
			r.profiles[id].Record(env.Pub.AdvID, env.Pub.Seq)
		}
	}
	slices.Sort(fwd)
	slices.SortFunc(deliv, func(a, b Endpoint) int { return strings.Compare(a.ID, b.ID) })
	var out []Outgoing
	for _, id := range fwd {
		out = append(out, Outgoing{To: Endpoint{Kind: KindBroker, ID: id}, Env: env, Hops: env.Pub.Hops + 1})
	}
	for _, cl := range deliv {
		out = append(out, Outgoing{To: cl, Env: env, Hops: env.Pub.Hops})
	}
	return out
}

// account advances the reference counters by one input and its outputs.
func (r *routeRef) account(env *message.Envelope, out []Outgoing) {
	r.counters.MsgsIn++
	r.bytesIn += int64(env.EncodedSize())
	for _, o := range out {
		r.counters.MsgsOut++
		r.counters.BytesOut += o.Env.EncodedSize()
	}
}

// sameOutputs reports whether two HandleBatch outputs agree copy for
// copy. A publication copy must alias the very envelope handed in; a
// control copy, which the core builds itself, must equal the reference's
// by value.
func sameOutputs(got, want []Outgoing) bool {
	return slices.EqualFunc(got, want, func(g, w Outgoing) bool {
		return g.To == w.To && g.Hops == w.Hops &&
			(g.Env == w.Env || g.Env.Kind != message.KindPublication && reflect.DeepEqual(g.Env, w.Env))
	})
}

// checkRuns fails unless every copy of one (Env, Hops) pair in a
// HandleBatch output comes in one run of consecutive outputs: the
// emission-run invariant broker.Outgoing states and its consumers rely on.
func checkRuns(t *testing.T, step int, what string, outs []Outgoing) {
	type pair struct {
		env  *message.Envelope
		hops int
	}
	seen := make(map[pair]bool)
	for i, o := range outs {
		p := pair{o.Env, o.Hops}
		if i > 0 && p == (pair{outs[i-1].Env, outs[i-1].Hops}) {
			continue
		}
		if seen[p] {
			t.Fatalf("step %d (%s): output %d reopens an earlier run of one (envelope, hops) pair", step, what, i)
		}
		seen[p] = true
	}
}

// describe renders outputs by destination, kind, payload and hops.
func describe(outs []Outgoing) string {
	var b strings.Builder
	for _, o := range outs {
		fmt.Fprintf(&b, "\n  %v %v", o.To, o.Env.Kind)
		switch e := o.Env; e.Kind {
		case message.KindPublication:
			fmt.Fprintf(&b, " %s/%d hops %d", e.Pub.AdvID, e.Pub.Seq, o.Hops)
		case message.KindSubscription:
			fmt.Fprintf(&b, " %s", e.Sub.ID)
		case message.KindUnsubscription:
			fmt.Fprintf(&b, " %s", e.UnsubID)
		case message.KindAdvertisement:
			fmt.Fprintf(&b, " %s", e.Adv.ID)
		case message.KindUnadvertisement:
			fmt.Fprintf(&b, " %s", e.UnadvID)
		}
	}
	return b.String()
}

// runRouteScript decodes a script and runs it through a Core and the
// reference side by side, comparing every HandleBatch call's outputs, the
// counters, the inbound-bytes metric and the CBC profiles after every
// operation, and holding every
// output to the emission-run invariant.
func runRouteScript(t *testing.T, script []byte) {
	next := func(mod int) int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b) % mod
	}
	c, err := New(Config{ID: "B", Delay: message.MatchingDelayFn{Base: 0.001}, Clock: func() float64 { return 0 },
		Instruments: NewInstruments(telemetry.New(nil))})
	if err != nil {
		t.Fatal(err)
	}
	ref := &routeRef{subs: make(map[string]*message.Subscription), hops: make(map[string]Endpoint),
		profiles: make(map[string]*bitvector.Profile), advs: make(map[string]advEntry), fwd: make(map[string][]string)}
	endpoints := make([]Endpoint, 0, len(routeClients)+len(routeNeighbors))
	for _, id := range routeClients {
		c.AddClient(id)
		endpoints = append(endpoints, Endpoint{Kind: KindClient, ID: id})
	}
	for _, id := range routeNeighbors[:1+next(len(routeNeighbors))] {
		ref.neighbors = append(ref.neighbors, id)
		endpoints = append(endpoints, Endpoint{Kind: KindBroker, ID: id})
	}
	// Links come up out of order, one twice, and one goes down again: the
	// floods still reach each live neighbor once, in ID order.
	c.AddNeighbor("n9")
	for i := len(ref.neighbors) - 1; i >= 0; i-- {
		c.AddNeighbor(ref.neighbors[i])
	}
	c.AddNeighbor(ref.neighbors[0])
	c.RemoveNeighbor("n9")
	preds := func() []message.Predicate {
		ps := make([]message.Predicate, next(4))
		for i := range ps {
			ps[i] = message.Pred(routeAttrs[next(len(routeAttrs))], routeOps[next(len(routeOps))], routeValues[next(len(routeValues))])
		}
		return ps
	}
	adds, seq := 0, 0
	for step := 0; len(script) > 0; step++ {
		var batch []Inbound
		var want []Outgoing
		what := ""
		switch byte(next(int(routeOpcodes))) {
		case routeSubscribe:
			from := endpoints[next(len(endpoints))]
			sub := message.NewSubscription(fmt.Sprintf("s%03d", adds), from.ID, preds())
			adds++
			env := &message.Envelope{Kind: message.KindSubscription, Sub: sub}
			batch = []Inbound{{From: from, Env: env}}
			want = ref.subscribe(from, sub)
			ref.account(env, want)
			what = "subscribe " + sub.String() + " from " + from.String()
		case routeUnsubscribe:
			ids := make([]string, 0, len(ref.subs))
			for id := range ref.subs {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			id := "ghost"
			if i := next(len(ids) + 1); i < len(ids) {
				id = ids[i]
			}
			env := &message.Envelope{Kind: message.KindUnsubscription, UnsubID: id}
			batch = []Inbound{{From: ref.hops[id], Env: env}}
			want = ref.unsubscribe(env)
			ref.account(env, want)
			what = "unsubscribe " + id
		case routeCompact:
			c.engine.Compact()
			what = "compact"
		case routePublish:
			for m := 1 + next(4); m > 0; m-- {
				from := endpoints[next(len(endpoints))]
				adv, hops := fmt.Sprintf("ADV-%d", next(2)), next(3)
				attrs := make(map[string]message.Value)
				for n := next(4); n > 0; n-- {
					attrs[routeAttrs[next(len(routeAttrs))]] = routeValues[next(len(routeValues))]
				}
				pub := message.NewPublication(adv, seq, attrs)
				pub.Hops = hops
				seq++
				env := &message.Envelope{Kind: message.KindPublication, Pub: pub}
				batch = append(batch, Inbound{From: from, Env: env})
				out := ref.outputs(from, env)
				want = append(want, out...)
				ref.account(env, out)
			}
			what = fmt.Sprintf("publish %d", len(batch))
		case routeAdvertise:
			from := endpoints[next(len(endpoints))]
			adv := message.NewAdvertisement(routeAdvs[next(len(routeAdvs))], from.ID, preds())
			env := &message.Envelope{Kind: message.KindAdvertisement, Adv: adv}
			batch = []Inbound{{From: from, Env: env}}
			want = ref.advertise(from, env)
			ref.account(env, want)
			what = "advertise " + adv.String() + " from " + from.String()
		case routeUnadvertise:
			from := endpoints[next(len(endpoints))]
			env := &message.Envelope{Kind: message.KindUnadvertisement, UnadvID: routeAdvs[next(len(routeAdvs))]}
			batch = []Inbound{{From: from, Env: env}}
			if _, ok := ref.advs[env.UnadvID]; ok {
				delete(ref.advs, env.UnadvID)
				want = ref.flood(from, env)
			}
			ref.account(env, want)
			what = "unadvertise " + env.UnadvID + " from " + from.String()
		}
		got, err := c.HandleBatch(batch, nil)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		if !sameOutputs(got, want) {
			t.Fatalf("step %d (%s):\ncore:%s\nbrute force:%s", step, what, describe(got), describe(want))
		}
		checkRuns(t, step, what, got)
		if c.Counters() != ref.counters {
			t.Fatalf("step %d (%s): counters %+v, brute force %+v", step, what, c.Counters(), ref.counters)
		}
		if got := c.inst.BytesIn.Value(); got != ref.bytesIn {
			t.Fatalf("step %d (%s): %d bytes in, brute force %d", step, what, got, ref.bytesIn)
		}
		infos := c.info().Subscriptions
		if len(infos) != len(ref.profiles) {
			t.Fatalf("step %d (%s): %d profiled subscriptions, brute force %d", step, what, len(infos), len(ref.profiles))
		}
		for _, info := range infos {
			if p := ref.profiles[info.Sub.ID]; p == nil || !reflect.DeepEqual(info.Profile.Snapshot(), p.Snapshot()) {
				t.Fatalf("step %d (%s): profile of %s differs from brute force", step, what, info.Sub.ID)
			}
		}
	}
}

// FuzzRouteEquivalence decodes its input as a script of subscriptions,
// unsubscriptions, advertisements and unadvertisements from clients and
// 1–4 neighbors, compactions, and runs of publications from clients and
// neighbors, and holds Core to the brute-force reference after every
// operation: HandleBatch's outputs in order, the traffic counters, the
// inbound-bytes metric and the CBC profiles.
func FuzzRouteEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		script := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(script)
		f.Add(script)
	}
	// Endpoints are c0 c1 c2 n1 n2 n3 (a leading 2 opens three neighbors);
	// a predicate is (attr, op, value) with class=0, Eq=0, "A"=0.
	f.Add([]byte{2,
		// A late advertisement: s000 from c0 and s001 from n1 want class
		// "A"; then n2 advertises it and is sent both, then n1 advertises
		// it and is sent only s000. s000's removal goes to n1 and n2.
		routeSubscribe, 0, 1, 0, 0, 0,
		routeSubscribe, 3, 1, 0, 0, 0,
		routeAdvertise, 4, 0, 1, 0, 0, 0,
		routeAdvertise, 3, 1, 0,
		routeUnsubscribe, 0,
	})
	f.Add([]byte{2,
		// Slot reuse: s000 is sent to n1, removed and compacted away; s001,
		// from n1, takes its slot and was sent nowhere, so its removal goes
		// nowhere.
		routeAdvertise, 3, 0, 0,
		routeSubscribe, 0, 0,
		routeUnsubscribe, 0,
		routeCompact,
		routeSubscribe, 3, 0,
		routeUnsubscribe, 0,
		routeUnadvertise, 4, 0,
	})
	// The advertisement index may rule out only what
	// message.PredicatesIntersect would: each seed below fails a router
	// that takes any two differing equalities on one attribute, or an
	// advertisement without the attribute, for a miss. Values: "A"=0,
	// "B"=1, 1=4, true=6, NaN=7; attributes: class=0, symbol=1, low=2.
	f.Add([]byte{2,
		// A bool equality and a number equality: n1 states low=true, n2
		// low=1, and s000 on low=1 goes to both.
		routeAdvertise, 3, 0, 1, 2, 0, 6,
		routeAdvertise, 4, 1, 1, 2, 0, 4,
		routeSubscribe, 0, 1, 2, 0, 4,
	})
	f.Add([]byte{2,
		// NaN: n1 states low=NaN, n2 low=1; s000 on low=1 and s001 on
		// low=NaN each go to both.
		routeAdvertise, 3, 0, 1, 2, 0, 7,
		routeAdvertise, 4, 1, 1, 2, 0, 4,
		routeSubscribe, 0, 1, 2, 0, 4,
		routeSubscribe, 1, 1, 2, 0, 7,
	})
	f.Add([]byte{2,
		// An advertisement without the attribute: n1 states symbol="A",
		// n2 only class="A"; s000 on symbol="B" goes to n2 alone.
		routeAdvertise, 3, 0, 1, 1, 0, 0,
		routeAdvertise, 4, 1, 1, 0, 0, 0,
		routeSubscribe, 0, 1, 1, 0, 1,
	})
	f.Add([]byte{2,
		// Two equalities on one attribute: n1 states symbol="A" and "B",
		// n2 symbol="A" twice, n3 no symbol. s000 on symbol="A" goes to n2
		// and n3, s001 on symbol="B" to n3 alone; without ADV-1, s002 on
		// symbol="B" still goes to n3 alone.
		routeAdvertise, 3, 0, 2, 1, 0, 0, 1, 0, 1,
		routeAdvertise, 4, 1, 2, 1, 0, 0, 1, 0, 0,
		routeAdvertise, 5, 2, 1, 0, 0, 0,
		routeSubscribe, 0, 1, 1, 0, 0,
		routeSubscribe, 1, 1, 1, 0, 1,
		routeUnadvertise, 4, 1,
		routeSubscribe, 2, 1, 1, 0, 1,
	})
	f.Add([]byte{2,
		// Unadvertise, then advertise again: n3 states symbol="A" as
		// ADV-1 throughout; n1 states it as ADV-0, withdraws it, and n2
		// advertises ADV-0 without a symbol. s000 on symbol="B", from
		// before, is re-forwarded to n2; s001, after, goes to n2.
		routeAdvertise, 5, 1, 1, 1, 0, 0,
		routeAdvertise, 3, 0, 1, 1, 0, 0,
		routeSubscribe, 0, 1, 1, 0, 1,
		routeUnadvertise, 3, 0,
		routeAdvertise, 4, 0, 1, 0, 0, 0,
		routeSubscribe, 1, 1, 1, 0, 1,
	})
	f.Fuzz(runRouteScript)
}
