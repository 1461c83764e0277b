// Package broker implements a PADRES-style filter-based content-based
// publish/subscribe broker: advertisements flood the overlay,
// subscriptions are routed along the reverse paths of intersecting
// advertisements, and publications are routed along the reverse paths of
// matching subscriptions — guaranteeing no false-positive deliveries.
//
// The broker is split in two layers. Core (this file) is a purely
// synchronous state machine: Handle consumes one message and appends the
// messages to emit. The deterministic virtual-time simulator drives Cores
// directly; the live runtime (node.go) wraps a Core with an event loop,
// links, and a bandwidth limiter. Integrated into the Core is the CBC — the
// CROC Back-end Component of Section III — which profiles local
// subscriptions with bit vectors, measures local publishers, and
// participates in the BIR/BIA information-gathering protocol.
package broker

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/matching"
	"github.com/greenps/greenps/internal/message"
)

// EndpointKind distinguishes neighbor brokers from attached clients.
type EndpointKind int

// Endpoint kinds.
const (
	KindBroker EndpointKind = iota + 1
	KindClient
)

// Endpoint identifies a message source or destination attached to a broker.
type Endpoint struct {
	Kind EndpointKind
	ID   string
}

// String renders the endpoint.
func (e Endpoint) String() string {
	if e.Kind == KindBroker {
		return "broker:" + e.ID
	}
	return "client:" + e.ID
}

// Outgoing pairs a destination endpoint with the envelope to send there.
//
// Publication envelopes are shared, not cloned: every Outgoing fanned out
// from one handled publication aliases the same envelope (usually the
// incoming one), and Hops carries the hop count the destination must
// observe. Consumers apply Hops at the edge — the live transport while
// encoding the frame, the simulator while enqueueing onto the next link —
// so the broker core never copies a publication. The aliasing contract:
// envelopes handed to Handle/HandleBatch may be retained in the returned
// Outgoings and must be treated as immutable until those are consumed.
//
// The emission-run invariant: in one Handle/HandleBatch output, every
// copy of one (Env, Hops) pair comes in a single run of consecutive
// Outgoings — a publication's forwards, then its deliveries, and each
// flood or subscription routing step's copies. So a consumer that
// remembers only the last pair it saw encodes or re-stamps each pair once
// (Node.flushOutgoing, sim.Network.Drain).
type Outgoing struct {
	To  Endpoint
	Env *message.Envelope
	// Hops is the broker-to-broker hop count the destination observes
	// for publication envelopes (applied at encode/enqueue time); it is
	// meaningless for other kinds.
	Hops int
}

// Inbound pairs a source endpoint with a received envelope; HandleBatch
// consumes slices of these.
type Inbound struct {
	From Endpoint
	Env  *message.Envelope
	// Size, when nonzero, is Env.EncodedSize() for a publication
	// envelope, carried from an earlier hop so the core need not walk the
	// attributes again; zero makes the core walk them. It is ignored for
	// other kinds.
	Size int
}

// Clock supplies the broker's notion of elapsed time in seconds; the live
// runtime uses wall time, the simulator a virtual clock. Publisher rates in
// BIA messages are derived from it.
type Clock func() float64

// Config configures a Core.
type Config struct {
	// ID is the broker's identifier (required).
	ID string
	// URL is the address reported in BIA messages.
	URL string
	// Delay is the matching-delay model reported in BIA messages.
	Delay message.MatchingDelayFn
	// OutputBandwidth is the total output bandwidth reported in BIA
	// messages, bytes/s.
	OutputBandwidth float64
	// ProfileCapacity is the bit-vector capacity for subscription
	// profiles (0 = default 1280).
	ProfileCapacity int
	// Clock is required.
	Clock Clock
	// Instruments attaches telemetry (nil disables it).
	Instruments *Instruments
}

// advEntry records a known advertisement and the endpoint it arrived from.
type advEntry struct {
	adv  *message.Advertisement
	from Endpoint
}

// Counters accumulates the broker's traffic totals, the raw material of
// the evaluation's "broker message rate" metric.
type Counters struct {
	MsgsIn   int
	MsgsOut  int
	BytesOut int
}

// Total returns input plus output messages.
func (c Counters) Total() int { return c.MsgsIn + c.MsgsOut }

// pubScratch is the Core's reusable per-publication working memory: the
// batch run view and the per-publication fan-out accumulators. Reusing
// it across publications is what keeps the steady-state publication path
// allocation-free.
type pubScratch struct {
	// one backs the single-message Handle path as a 1-element run.
	one [1]Inbound
	// pubs/arrivals/envs/sizes are the current run, indexed alike;
	// arrivals holds the route group of the link each publication came in
	// on, sizes each envelope's EncodedSize.
	pubs     []*message.Publication
	arrivals []int32
	envs     []*message.Envelope
	sizes    []int
	// fwdIDs/deliv accumulate the fan-out of the publication currently
	// being matched: neighbor-broker IDs (one per route group, so at most
	// one per neighbor) and client endpoints (one entry per matching
	// subscription).
	fwdIDs []string
	deliv  []Endpoint
}

// route is the slot-keyed state of one indexed subscription: the endpoint
// it arrived from, for a local subscription its CBC profile, and the
// neighbors it has been sent to, ascending.
type route struct {
	hop  Endpoint
	prof *bitvector.Profile
	fwd  []string
}

// Core is the synchronous broker state machine. It is not safe for
// concurrent use; wrap it in a Node for live deployments.
type Core struct {
	cfg    Config
	engine *matching.CountingEngine
	// routes is indexed by engine slot.
	routes []route
	// links interns the IDs of the brokers subscriptions arrived from as
	// route groups 1, 2, ...: every subscription behind one neighbor
	// shares its group, so a publication is forwarded there at most once.
	links map[string]int32
	advs  map[string]advEntry
	// neighbors holds the connected broker IDs, ascending.
	neighbors []string
	clients   map[string]bool
	cbc       *cbc
	counters  Counters
	// inst is never nil; the zero bundle no-ops.
	inst *Instruments

	// scratch plus the streaming-flush cursor of the publication run in
	// progress: runOut is the output slice being grown, runPos the index
	// of the publication whose matches are accumulating in scratch.
	scratch pubScratch
	runOut  []Outgoing
	runPos  int
	// batchCb is the MatchRouted callback, bound once so matching a run
	// allocates no closures.
	batchCb func(int, int32)
}

// New constructs a Core.
func New(cfg Config) (*Core, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("broker: config requires an ID")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("broker: config requires a clock")
	}
	// A BIA carries these as JSON numbers, which have no NaN or infinity:
	// a broker holding one could not answer a BIR. Negative values stay
	// allowed and mean unthrottled.
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"output bandwidth", cfg.OutputBandwidth}, {"matching delay per subscription", cfg.Delay.PerSub}, {"matching delay base", cfg.Delay.Base}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("broker %s: %s %v is not finite", cfg.ID, f.name, f.v)
		}
	}
	inst := cfg.Instruments
	if inst == nil {
		inst = noopInstruments
	}
	c := &Core{
		cfg:     cfg,
		engine:  matching.NewCountingEngine(),
		links:   make(map[string]int32),
		advs:    make(map[string]advEntry),
		clients: make(map[string]bool),
		cbc:     newCBC(cfg.ProfileCapacity, cfg.Clock),
		inst:    inst,
	}
	c.batchCb = func(i int, slot int32) {
		// MatchRouted reports matches in nondecreasing publication order,
		// so reaching publication i means everything before it is fully
		// matched and can be flushed.
		c.flushThrough(i)
		c.collectMatch(slot)
	}
	return c, nil
}

// ID returns the broker's identifier.
func (c *Core) ID() string { return c.cfg.ID }

// Counters returns the traffic totals so far.
func (c *Core) Counters() Counters { return c.counters }

// MatchingDelaySeconds returns the modeled per-publication matching delay
// at the current routing-table size (the paper's linear model).
func (c *Core) MatchingDelaySeconds() float64 {
	return c.cfg.Delay.Delay(c.engine.Len())
}

// OutputBandwidth returns the broker's configured output bandwidth in
// bytes/s.
func (c *Core) OutputBandwidth() float64 { return c.cfg.OutputBandwidth }

// AddNeighbor registers a broker link.
func (c *Core) AddNeighbor(id string) {
	if i, ok := slices.BinarySearch(c.neighbors, id); !ok {
		c.neighbors = slices.Insert(c.neighbors, i, id)
	}
}

// RemoveNeighbor drops a broker link.
func (c *Core) RemoveNeighbor(id string) {
	if i, ok := slices.BinarySearch(c.neighbors, id); ok {
		c.neighbors = slices.Delete(c.neighbors, i, i+1)
	}
}

// AddClient registers an attached client.
func (c *Core) AddClient(id string) { c.clients[id] = true }

// RemoveClient detaches a client.
func (c *Core) RemoveClient(id string) { delete(c.clients, id) }

// Handle processes one incoming envelope and appends every message the
// broker must emit to out. It returns out (possibly grown).
func (c *Core) Handle(from Endpoint, env *message.Envelope, out []Outgoing) ([]Outgoing, error) {
	if err := env.Validate(); err != nil {
		return out, fmt.Errorf("broker %s: %w", c.cfg.ID, err)
	}
	if env.Kind == message.KindPublication {
		c.scratch.one[0] = Inbound{From: from, Env: env}
		return c.handlePublicationRun(c.scratch.one[:], out), nil
	}
	c.accountIn(env.EncodedSize())
	before := len(out)
	var err error
	switch env.Kind {
	case message.KindAdvertisement:
		out = c.handleAdvertisement(from, env.Adv, out)
	case message.KindUnadvertisement:
		out = c.handleUnadvertisement(from, env.UnadvID, out)
	case message.KindSubscription:
		out, err = c.handleSubscription(from, env.Sub, out)
	case message.KindUnsubscription:
		out, err = c.handleUnsubscription(from, env.UnsubID, out)
	case message.KindBIR:
		out = c.handleBIR(from, env.BIR, out)
	case message.KindBIA:
		out = c.handleBIA(from, env.BIA, out)
	}
	c.accountOut(out[before:])
	return out, err
}

// accountIn advances the inbound counters and instruments by one message
// of sz bytes.
func (c *Core) accountIn(sz int) {
	c.counters.MsgsIn++
	c.inst.MsgsIn.Inc()
	c.inst.BytesIn.Add(int64(sz))
}

// accountCopies advances the outbound counters and instruments by n
// emitted copies of one sz-byte message.
func (c *Core) accountCopies(n, sz int) {
	c.counters.MsgsOut += n
	c.counters.BytesOut += n * sz
	c.inst.MsgsOut.Add(int64(n))
	c.inst.BytesOut.Add(int64(n * sz))
}

// accountOut advances the outbound counters and instruments by the
// control messages a handler emitted. The copies of one flood share
// their *Envelope, so a size is computed once per run of outputs
// carrying the same pointer. Publications never come here: their run
// accounts its fan-out with the size it already holds.
func (c *Core) accountOut(outs []Outgoing) {
	for i := 0; i < len(outs); {
		j := i + 1
		for j < len(outs) && outs[j].Env == outs[i].Env {
			j++
		}
		c.accountCopies(j-i, outs[i].Env.EncodedSize())
		i = j
	}
}

// handleAdvertisement stores and floods the advertisement, re-forwards any
// intersecting subscriptions toward the advertiser (necessary when clients
// migrate during reconfiguration), and registers local publishers with the
// CBC.
func (c *Core) handleAdvertisement(from Endpoint, adv *message.Advertisement, out []Outgoing) []Outgoing {
	if _, dup := c.advs[adv.ID]; dup {
		return out // flood duplicate in a non-tree overlay; trees never hit this
	}
	c.advs[adv.ID] = advEntry{adv: adv, from: from}
	if from.Kind == KindClient {
		c.cbc.registerPublisher(adv)
	}
	env := &message.Envelope{Kind: message.KindAdvertisement, Adv: adv}
	for _, n := range c.neighbors {
		if from.Kind == KindBroker && n == from.ID {
			continue
		}
		out = append(out, Outgoing{To: Endpoint{Kind: KindBroker, ID: n}, Env: env})
	}
	// Route existing subscriptions toward the new advertisement, in
	// sorted ID order: Subscriptions() iterates a map, and emitting in
	// map order broke the simulator's byte-identical determinism
	// guarantee (emission order varied run to run).
	if from.Kind == KindBroker {
		subs := c.engine.Subscriptions()
		slices.SortFunc(subs, func(a, b *message.Subscription) int { return strings.Compare(a.ID, b.ID) })
		for _, sub := range subs {
			if !adv.IntersectsSubscription(sub) {
				continue
			}
			slot, _ := c.engine.Slot(sub.ID)
			if c.routes[slot].hop == from || !c.forward(slot, from.ID) {
				continue
			}
			out = append(out, Outgoing{To: from, Env: &message.Envelope{Kind: message.KindSubscription, Sub: sub}})
		}
	}
	return out
}

// forward records that the subscription in slot is sent to neighbor id,
// keeping its forwarding set ascending, and reports false when it had
// been sent there already.
func (c *Core) forward(slot int32, id string) bool {
	r := &c.routes[slot]
	i, sent := slices.BinarySearch(r.fwd, id)
	if !sent {
		r.fwd = slices.Insert(r.fwd, i, id)
	}
	return !sent
}

// handleUnadvertisement removes the advertisement and floods the removal.
func (c *Core) handleUnadvertisement(from Endpoint, advID string, out []Outgoing) []Outgoing {
	entry, ok := c.advs[advID]
	if !ok {
		return out
	}
	delete(c.advs, advID)
	if entry.from.Kind == KindClient {
		c.cbc.unregisterPublisher(advID)
	}
	env := &message.Envelope{Kind: message.KindUnadvertisement, UnadvID: advID}
	for _, n := range c.neighbors {
		if from.Kind == KindBroker && n == from.ID {
			continue
		}
		out = append(out, Outgoing{To: Endpoint{Kind: KindBroker, ID: n}, Env: env})
	}
	return out
}

// handleSubscription indexes the subscription and forwards it toward every
// neighbor that is the last hop of an intersecting advertisement.
func (c *Core) handleSubscription(from Endpoint, sub *message.Subscription, out []Outgoing) ([]Outgoing, error) {
	if c.engine.Get(sub.ID) != nil {
		return out, nil
	}
	slot, err := c.engine.AddInGroup(sub, c.routeGroup(from, true))
	if err != nil {
		return out, fmt.Errorf("broker %s: %w", c.cfg.ID, err)
	}
	r := route{hop: from}
	if from.Kind == KindClient {
		r.prof = c.cbc.newProfile()
	}
	if grow := int(slot) + 1 - len(c.routes); grow > 0 {
		c.routes = append(c.routes, make([]route, grow)...)
	}
	c.routes[slot] = r
	var ids []string
	for _, entry := range c.advs {
		if entry.from.Kind == KindBroker && entry.from != from && entry.adv.IntersectsSubscription(sub) {
			ids = append(ids, entry.from.ID)
		}
	}
	// Sorted, so the emission order does not follow map order; forward
	// drops the repeats of a neighbor behind several advertisements.
	slices.Sort(ids)
	env := &message.Envelope{Kind: message.KindSubscription, Sub: sub}
	for _, id := range ids {
		if c.forward(slot, id) {
			out = append(out, Outgoing{To: Endpoint{Kind: KindBroker, ID: id}, Env: env})
		}
	}
	return out, nil
}

// handleUnsubscription removes the subscription and propagates the removal
// along the paths the subscription was forwarded to.
func (c *Core) handleUnsubscription(from Endpoint, subID string, out []Outgoing) ([]Outgoing, error) {
	slot, ok := c.engine.Slot(subID)
	if !ok {
		return out, nil
	}
	if err := c.engine.Remove(subID); err != nil {
		return out, fmt.Errorf("broker %s: %w", c.cfg.ID, err)
	}
	env := &message.Envelope{Kind: message.KindUnsubscription, UnsubID: subID}
	for _, id := range c.routes[slot].fwd {
		out = append(out, Outgoing{To: Endpoint{Kind: KindBroker, ID: id}, Env: env})
	}
	c.routes[slot] = route{}
	return out, nil
}

// HandleBatch processes a batch of incoming envelopes, appending every
// message the broker must emit to out and returning out (possibly
// grown). Runs of consecutive valid publications are matched against the
// engine in a single pass (amortizing the per-call overhead that
// dominates one-message-per-call processing); every other envelope is
// dispatched through Handle. The first error is returned after the whole
// batch is processed, matching the per-message contract: one bad
// envelope does not abort its batch.
//
// The outputs interleave exactly as N sequential Handle calls would
// produce them, and all counters/instruments advance identically.
func (c *Core) HandleBatch(msgs []Inbound, out []Outgoing) ([]Outgoing, error) {
	var firstErr error
	for i := 0; i < len(msgs); {
		// Extend the run of valid publications starting at i. Invalid
		// publications fall through to Handle, which reports the error.
		j := i
		for j < len(msgs) && msgs[j].Env.Kind == message.KindPublication && msgs[j].Env.Validate() == nil {
			j++
		}
		if j > i {
			out = c.handlePublicationRun(msgs[i:j], out)
			i = j
			continue
		}
		var err error
		out, err = c.Handle(msgs[i].From, msgs[i].Env, out)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		i++
	}
	return out, firstErr
}

// handlePublicationRun matches a run of publications against the engine
// in one pass, flushing each publication's fan-out as soon as the
// matcher moves past it. It accounts every publication in and every copy
// out with the one size it takes for each envelope: the Inbound's Size,
// or a walk of the attributes when that is zero.
func (c *Core) handlePublicationRun(msgs []Inbound, out []Outgoing) []Outgoing {
	s := &c.scratch
	s.pubs = s.pubs[:0]
	s.arrivals = s.arrivals[:0]
	s.envs = s.envs[:0]
	s.sizes = s.sizes[:0]
	for k := range msgs {
		sz := msgs[k].Size
		if sz == 0 {
			sz = msgs[k].Env.EncodedSize()
		}
		c.accountIn(sz)
		s.pubs = append(s.pubs, msgs[k].Env.Pub)
		s.arrivals = append(s.arrivals, c.routeGroup(msgs[k].From, false))
		s.envs = append(s.envs, msgs[k].Env)
		s.sizes = append(s.sizes, sz)
		if msgs[k].From.Kind == KindClient {
			c.cbc.recordPublication(msgs[k].Env.Pub, sz)
		}
	}
	s.fwdIDs = s.fwdIDs[:0]
	s.deliv = s.deliv[:0]
	c.runOut = out
	c.runPos = 0
	c.engine.MatchRouted(s.pubs, s.arrivals, c.batchCb)
	c.flushThrough(len(s.pubs))
	out = c.runOut
	c.runOut = nil
	return out
}

// routeGroup returns the route group of the subscriptions that arrived
// from ep: the interned index of a broker link, interning it when asked,
// and 0 — report every match — for clients and links never interned.
func (c *Core) routeGroup(ep Endpoint, intern bool) int32 {
	if ep.Kind != KindBroker {
		return 0
	}
	g, ok := c.links[ep.ID]
	if !ok && intern {
		g = int32(len(c.links) + 1)
		c.links[ep.ID] = g
	}
	return g
}

// collectMatch records one matching subscription of the publication at
// the run cursor: a neighbor-broker last hop — the engine emits at most
// one per neighbor, and none on the link the publication arrived on —
// accumulates as a forward target, a client last hop as a delivery that
// the subscription's profile records.
func (c *Core) collectMatch(slot int32) {
	r := &c.routes[slot]
	switch r.hop.Kind {
	case KindBroker:
		c.scratch.fwdIDs = append(c.scratch.fwdIDs, r.hop.ID)
	case KindClient:
		c.scratch.deliv = append(c.scratch.deliv, r.hop)
		pub := c.scratch.pubs[c.runPos]
		r.prof.Record(pub.AdvID, pub.Seq)
	}
}

// flushThrough emits the accumulated fan-out of every publication before
// run index i and advances the cursor, resetting the accumulators for
// the next publication.
func (c *Core) flushThrough(i int) {
	for c.runPos < i {
		c.flushPublication()
		c.runPos++
		c.scratch.fwdIDs = c.scratch.fwdIDs[:0]
		c.scratch.deliv = c.scratch.deliv[:0]
	}
}

// flushPublication turns the scratch accumulators into Outgoings for the
// publication at the run cursor: broker targets (distinct, one per route
// group) sorted, client targets sorted (one delivery per matching
// subscription), all sharing the incoming envelope with the hop count
// carried in Outgoing.Hops per the aliasing contract.
func (c *Core) flushPublication() {
	s := &c.scratch
	env := s.envs[c.runPos]
	pub := s.pubs[c.runPos]
	slices.Sort(s.fwdIDs)
	slices.SortFunc(s.deliv, func(a, b Endpoint) int { return strings.Compare(a.ID, b.ID) })
	if len(s.fwdIDs) > 0 || len(s.deliv) > 0 {
		c.inst.PubsMatched.Inc()
	} else {
		c.inst.PubsUnmatched.Inc()
	}
	c.inst.PubsForwarded.Add(int64(len(s.fwdIDs)))
	c.inst.PubsDelivered.Add(int64(len(s.deliv)))
	if n := len(s.fwdIDs) + len(s.deliv); n > 0 {
		c.accountCopies(n, s.sizes[c.runPos])
	}
	for _, id := range s.fwdIDs {
		c.runOut = append(c.runOut, Outgoing{To: Endpoint{Kind: KindBroker, ID: id}, Env: env, Hops: pub.Hops + 1})
	}
	for _, cl := range s.deliv {
		c.runOut = append(c.runOut, Outgoing{To: cl, Env: env, Hops: pub.Hops})
	}
}
