package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/message"
)

// Route script alphabets: a script subscribes from and publishes from these
// clients and the first 1–4 of these neighbors.
var (
	routeClients   = []string{"c0", "c1", "c2"}
	routeNeighbors = []string{"n1", "n2", "n3", "n4"}
	routeAttrs     = []string{"class", "symbol", "low"}
	routeOps       = []message.Op{message.OpEq, message.OpNeq, message.OpLt, message.OpGt,
		message.OpPrefix, message.OpPresent, message.OpEq, message.OpEq}
	routeValues = []message.Value{message.String("A"), message.String("B"), message.String("AB"),
		message.Number(0), message.Number(1), message.Number(2), message.Bool(true)}
)

// Route script opcodes; operands are bytes reduced modulo their alphabets.
const (
	routeSubscribe   byte = iota // endpoint, n, then n x (attr, op, value)
	routeUnsubscribe             // i: the i-th live subscription in ID order, or a ghost
	routeCompact                 //
	routePublish                 // m, then m x (endpoint, adv, hops, n, then n x (attr, value)): one HandleBatch run
)

// routeRef is the brute-force router FuzzRouteEquivalence holds Core to:
// every live subscription with its last hop, matched by
// Subscription.Matches, and the profile and counters that implies.
type routeRef struct {
	subs     map[string]*message.Subscription
	hops     map[string]Endpoint
	profiles map[string]*bitvector.Profile
	counters Counters
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
	r.counters.BytesIn += env.EncodedSize()
	for _, o := range out {
		r.counters.MsgsOut++
		r.counters.BytesOut += o.Env.EncodedSize()
	}
}

// runRouteScript decodes a script and runs it through a Core and the
// reference side by side, comparing every HandleBatch call's outputs, the
// counters and the CBC profiles after every operation.
func runRouteScript(t *testing.T, script []byte) {
	next := func(mod int) int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b) % mod
	}
	c, err := New(Config{ID: "B", Delay: message.MatchingDelayFn{Base: 0.001}, Clock: func() float64 { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	endpoints := make([]Endpoint, 0, len(routeClients)+len(routeNeighbors))
	for _, id := range routeClients {
		c.AddClient(id)
		endpoints = append(endpoints, Endpoint{Kind: KindClient, ID: id})
	}
	for _, id := range routeNeighbors[:1+next(len(routeNeighbors))] {
		c.AddNeighbor(id)
		endpoints = append(endpoints, Endpoint{Kind: KindBroker, ID: id})
	}
	ref := &routeRef{subs: make(map[string]*message.Subscription), hops: make(map[string]Endpoint),
		profiles: make(map[string]*bitvector.Profile)}
	adds, seq := 0, 0
	for step := 0; len(script) > 0; step++ {
		var batch []Inbound
		var want []Outgoing
		what := ""
		switch byte(next(4)) {
		case routeSubscribe:
			from := endpoints[next(len(endpoints))]
			preds := make([]message.Predicate, next(4))
			for i := range preds {
				preds[i] = message.Pred(routeAttrs[next(len(routeAttrs))], routeOps[next(len(routeOps))], routeValues[next(len(routeValues))])
			}
			sub := message.NewSubscription(fmt.Sprintf("s%03d", adds), from.ID, preds)
			adds++
			env := &message.Envelope{Kind: message.KindSubscription, Sub: sub}
			batch = []Inbound{{From: from, Env: env}}
			ref.subs[sub.ID], ref.hops[sub.ID] = sub, from
			if from.Kind == KindClient {
				ref.profiles[sub.ID] = bitvector.NewProfile(0)
			}
			ref.account(env, nil)
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
			delete(ref.subs, id)
			delete(ref.hops, id)
			delete(ref.profiles, id)
			ref.account(env, nil)
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
		}
		got, err := c.HandleBatch(batch, nil)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (%s):\ncore:        %v\nbrute force: %v", step, what, got, want)
		}
		if c.Counters() != ref.counters {
			t.Fatalf("step %d (%s): counters %+v, brute force %+v", step, what, c.Counters(), ref.counters)
		}
		infos := c.Info().Subscriptions
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

// FuzzRouteEquivalence decodes its input as a script of subscriptions and
// unsubscriptions from clients and 1–4 neighbors, compactions, and runs
// of publications from clients and neighbors, and holds Core to the
// brute-force reference after every operation: HandleBatch's outputs in
// order, the traffic counters and the CBC profiles.
func FuzzRouteEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		script := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(script)
		f.Add(script)
	}
	f.Fuzz(runRouteScript)
}
