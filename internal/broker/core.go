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
	"slices"
	"sort"
	"strings"

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
	BytesIn  int
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
	// pubs/froms/envs are the current run, indexed alike.
	pubs  []*message.Publication
	froms []Endpoint
	envs  []*message.Envelope
	// fwdIDs/deliv accumulate the fan-out of the publication currently
	// being matched: neighbor-broker IDs (deduplicated at flush) and
	// client endpoints (one entry per matching subscription).
	fwdIDs []string
	deliv  []Endpoint
}

// Core is the synchronous broker state machine. It is not safe for
// concurrent use; wrap it in a Node for live deployments.
type Core struct {
	cfg    Config
	engine *matching.CountingEngine
	// subHops maps subscription ID to the endpoint it arrived from.
	subHops map[string]Endpoint
	// subForwarded tracks which broker neighbors each subscription was
	// already forwarded to.
	subForwarded map[string]map[string]bool
	advs         map[string]advEntry
	neighbors    map[string]bool
	clients      map[string]bool
	cbc          *cbc
	counters     Counters
	// inst is never nil; the zero bundle no-ops.
	inst *Instruments

	// scratch plus the streaming-flush cursor of the publication run in
	// progress: runOut is the output slice being grown, runPos the index
	// of the publication whose matches are accumulating in scratch.
	scratch pubScratch
	runOut  []Outgoing
	runPos  int
	// batchCb is the MatchBatch callback, bound once so matching a run
	// allocates no closures.
	batchCb func(int, *message.Subscription)
}

// New constructs a Core.
func New(cfg Config) (*Core, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("broker: config requires an ID")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("broker: config requires a clock")
	}
	inst := cfg.Instruments
	if inst == nil {
		inst = noopInstruments
	}
	c := &Core{
		cfg:          cfg,
		engine:       matching.NewCountingEngine(),
		subHops:      make(map[string]Endpoint),
		subForwarded: make(map[string]map[string]bool),
		advs:         make(map[string]advEntry),
		neighbors:    make(map[string]bool),
		clients:      make(map[string]bool),
		cbc:          newCBC(cfg.ProfileCapacity, cfg.Clock),
		inst:         inst,
	}
	c.batchCb = func(i int, sub *message.Subscription) {
		// MatchBatch reports matches in nondecreasing publication order,
		// so reaching publication i means everything before it is fully
		// matched and can be flushed.
		c.flushThrough(i)
		c.collectMatch(c.scratch.froms[i], sub)
	}
	return c, nil
}

// ID returns the broker's identifier.
func (c *Core) ID() string { return c.cfg.ID }

// Counters returns the traffic totals so far.
func (c *Core) Counters() Counters { return c.counters }

// NumSubscriptions returns the routing-table size.
func (c *Core) NumSubscriptions() int { return c.engine.Len() }

// MatchingDelaySeconds returns the modeled per-publication matching delay
// at the current routing-table size (the paper's linear model).
func (c *Core) MatchingDelaySeconds() float64 {
	return c.cfg.Delay.Delay(c.engine.Len())
}

// OutputBandwidth returns the broker's configured output bandwidth in
// bytes/s.
func (c *Core) OutputBandwidth() float64 { return c.cfg.OutputBandwidth }

// Info exposes the broker's BIA contribution directly; the simulator's
// measurement phase uses it, and tests inspect it.
func (c *Core) Info() message.BrokerInfo { return c.info() }

// Neighbors returns the connected broker IDs, sorted.
func (c *Core) Neighbors() []string {
	out := make([]string, 0, len(c.neighbors))
	for id := range c.neighbors {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// AddNeighbor registers a broker link.
func (c *Core) AddNeighbor(id string) { c.neighbors[id] = true }

// RemoveNeighbor drops a broker link.
func (c *Core) RemoveNeighbor(id string) { delete(c.neighbors, id) }

// AddClient registers an attached client.
func (c *Core) AddClient(id string) { c.clients[id] = true }

// RemoveClient detaches a client.
func (c *Core) RemoveClient(id string) { delete(c.clients, id) }

// Handle processes one incoming envelope and appends every message the
// broker must emit to out. It returns out (possibly grown).
//
//greenvet:hotpath every envelope through a live broker passes here; per-message allocations multiply by the publication rate
func (c *Core) Handle(from Endpoint, env *message.Envelope, out []Outgoing) ([]Outgoing, error) {
	if err := env.Validate(); err != nil {
		return out, fmt.Errorf("broker %s: %w", c.cfg.ID, err)
	}
	c.accountIn(env)
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
	case message.KindPublication:
		c.scratch.one[0] = Inbound{From: from, Env: env}
		out = c.handlePublicationRun(c.scratch.one[:], out)
	case message.KindBIR:
		out = c.handleBIR(from, env.BIR, out)
	case message.KindBIA:
		out = c.handleBIA(from, env.BIA, out)
	}
	c.accountOut(out[before:])
	return out, err
}

// accountIn advances the inbound counters and instruments by one message.
//
//greenvet:hotpath once per inbound envelope
func (c *Core) accountIn(env *message.Envelope) {
	sz := env.EncodedSize()
	c.counters.MsgsIn++
	c.counters.BytesIn += sz
	c.inst.MsgsIn.Inc()
	c.inst.BytesIn.Add(int64(sz))
}

// accountOut advances the outbound counters and instruments by the
// emitted messages. The copies of one fan-out share their *Envelope, so a
// size — a walk of the publication's attributes — is computed once per
// run of outputs carrying the same pointer.
//
//greenvet:hotpath once per emitted message
func (c *Core) accountOut(outs []Outgoing) {
	var env *message.Envelope
	sz := 0
	for i := range outs {
		if outs[i].Env != env {
			env = outs[i].Env
			sz = env.EncodedSize()
		}
		c.counters.MsgsOut++
		c.counters.BytesOut += sz
		c.inst.MsgsOut.Inc()
		c.inst.BytesOut.Add(int64(sz))
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
	for _, n := range c.Neighbors() {
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
			if c.subHops[sub.ID].Kind == KindBroker && c.subHops[sub.ID].ID == from.ID {
				continue
			}
			if c.subForwarded[sub.ID][from.ID] {
				continue
			}
			markForwarded(c.subForwarded, sub.ID, from.ID)
			out = append(out, Outgoing{
				To:  Endpoint{Kind: KindBroker, ID: from.ID},
				Env: &message.Envelope{Kind: message.KindSubscription, Sub: sub},
			})
		}
	}
	return out
}

func markForwarded(m map[string]map[string]bool, subID, brokerID string) {
	set, ok := m[subID]
	if !ok {
		set = make(map[string]bool)
		m[subID] = set
	}
	set[brokerID] = true
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
	for _, n := range c.Neighbors() {
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
	if _, dup := c.subHops[sub.ID]; dup {
		return out, nil
	}
	if err := c.engine.Add(sub); err != nil {
		return out, fmt.Errorf("broker %s: %w", c.cfg.ID, err)
	}
	c.subHops[sub.ID] = from
	if from.Kind == KindClient {
		c.cbc.registerSubscription(sub)
	}
	env := &message.Envelope{Kind: message.KindSubscription, Sub: sub}
	targets := make(map[string]bool)
	for _, entry := range c.advs {
		if entry.from.Kind != KindBroker {
			continue
		}
		if from.Kind == KindBroker && entry.from.ID == from.ID {
			continue
		}
		if entry.adv.IntersectsSubscription(sub) {
			targets[entry.from.ID] = true
		}
	}
	ids := make([]string, 0, len(targets))
	for id := range targets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if c.subForwarded[sub.ID][id] {
			continue
		}
		markForwarded(c.subForwarded, sub.ID, id)
		out = append(out, Outgoing{To: Endpoint{Kind: KindBroker, ID: id}, Env: env})
	}
	return out, nil
}

// handleUnsubscription removes the subscription and propagates the removal
// along the paths the subscription was forwarded to.
func (c *Core) handleUnsubscription(from Endpoint, subID string, out []Outgoing) ([]Outgoing, error) {
	if _, ok := c.subHops[subID]; !ok {
		return out, nil
	}
	hop := c.subHops[subID]
	if err := c.engine.Remove(subID); err != nil {
		return out, fmt.Errorf("broker %s: %w", c.cfg.ID, err)
	}
	delete(c.subHops, subID)
	if hop.Kind == KindClient {
		c.cbc.unregisterSubscription(subID)
	}
	env := &message.Envelope{Kind: message.KindUnsubscription, UnsubID: subID}
	for id := range c.subForwarded[subID] {
		out = append(out, Outgoing{To: Endpoint{Kind: KindBroker, ID: id}, Env: env})
	}
	delete(c.subForwarded, subID)
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
//
//greenvet:hotpath the live event loop drains its queue through here; pinned zero-alloc by TestBrokerSteadyStateAllocationFree
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
			before := len(out)
			for k := i; k < j; k++ {
				c.accountIn(msgs[k].Env)
			}
			out = c.handlePublicationRun(msgs[i:j], out)
			c.accountOut(out[before:])
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
// matcher moves past it. Callers account MsgsIn/MsgsOut around it.
//
//greenvet:hotpath every publication through a live broker passes here; per-message allocations multiply by the publication rate
func (c *Core) handlePublicationRun(msgs []Inbound, out []Outgoing) []Outgoing {
	s := &c.scratch
	s.pubs = s.pubs[:0]
	s.froms = s.froms[:0]
	s.envs = s.envs[:0]
	for k := range msgs {
		s.pubs = append(s.pubs, msgs[k].Env.Pub)
		s.froms = append(s.froms, msgs[k].From)
		s.envs = append(s.envs, msgs[k].Env)
		if msgs[k].From.Kind == KindClient {
			c.cbc.recordPublication(msgs[k].Env.Pub)
		}
	}
	s.fwdIDs = s.fwdIDs[:0]
	s.deliv = s.deliv[:0]
	c.runOut = out
	c.runPos = 0
	c.engine.MatchBatch(s.pubs, c.batchCb)
	c.flushThrough(len(s.pubs))
	out = c.runOut
	c.runOut = nil
	return out
}

// collectMatch records one matching subscription of the publication at
// the run cursor: neighbor-broker last hops accumulate as forward
// targets (skipping the link the publication arrived on), client last
// hops as deliveries.
//
//greenvet:hotpath called once per matching subscription per publication
func (c *Core) collectMatch(from Endpoint, sub *message.Subscription) {
	hop, ok := c.subHops[sub.ID]
	if !ok {
		return
	}
	switch hop.Kind {
	case KindBroker:
		if from.Kind == KindBroker && hop.ID == from.ID {
			return
		}
		c.scratch.fwdIDs = append(c.scratch.fwdIDs, hop.ID)
	case KindClient:
		c.scratch.deliv = append(c.scratch.deliv, hop)
		c.cbc.recordDelivery(sub.ID, c.scratch.pubs[c.runPos])
	}
}

// flushThrough emits the accumulated fan-out of every publication before
// run index i and advances the cursor, resetting the accumulators for
// the next publication.
//
//greenvet:hotpath run-cursor advance of the batch publication path
func (c *Core) flushThrough(i int) {
	for c.runPos < i {
		c.flushPublication()
		c.runPos++
		c.scratch.fwdIDs = c.scratch.fwdIDs[:0]
		c.scratch.deliv = c.scratch.deliv[:0]
	}
}

// flushPublication turns the scratch accumulators into Outgoings for the
// publication at the run cursor: broker targets deduplicated and sorted,
// client targets sorted (one delivery per matching subscription, as
// before), all sharing the incoming envelope with the hop count carried
// in Outgoing.Hops per the aliasing contract.
//
//greenvet:hotpath fan-out emission of the batch publication path
func (c *Core) flushPublication() {
	s := &c.scratch
	env := s.envs[c.runPos]
	pub := s.pubs[c.runPos]
	slices.Sort(s.fwdIDs)
	s.fwdIDs = slices.Compact(s.fwdIDs)
	slices.SortFunc(s.deliv, func(a, b Endpoint) int { return strings.Compare(a.ID, b.ID) })
	if len(s.fwdIDs) > 0 || len(s.deliv) > 0 {
		c.inst.PubsMatched.Inc()
	} else {
		c.inst.PubsUnmatched.Inc()
	}
	c.inst.PubsForwarded.Add(int64(len(s.fwdIDs)))
	c.inst.PubsDelivered.Add(int64(len(s.deliv)))
	for _, id := range s.fwdIDs {
		c.runOut = append(c.runOut, Outgoing{To: Endpoint{Kind: KindBroker, ID: id}, Env: env, Hops: pub.Hops + 1})
	}
	for _, cl := range s.deliv {
		c.runOut = append(c.runOut, Outgoing{To: cl, Env: env, Hops: pub.Hops})
	}
}
