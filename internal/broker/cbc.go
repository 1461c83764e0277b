package broker

import (
	"slices"
	"sort"
	"strings"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/message"
)

// cbc is the CROC Back-end Component (Section III): it profiles the
// broker's local subscriptions with windowed bit vectors, measures local
// publishers, and answers Broker Information Requests. The profiles live
// in the Core's slot-keyed routes, where the publication path records
// deliveries into them.
type cbc struct {
	capacity int
	clock    Clock
	// publishers tracks each local publisher's advertisement and traffic.
	publishers map[string]*pubMeter
	// pending tracks one in-flight BIR aggregation per request ID.
	pending map[string]*birState
}

// pubMeter accumulates one local publisher's measurements.
type pubMeter struct {
	adv     *message.Advertisement
	started float64
	msgs    int
	bytes   int
	lastSeq int
}

// birState tracks an in-progress BIR aggregation.
type birState struct {
	parent  Endpoint
	waiting map[string]bool
	infos   []message.BrokerInfo
}

func newCBC(capacity int, clock Clock) *cbc {
	return &cbc{
		capacity:   capacity,
		clock:      clock,
		publishers: make(map[string]*pubMeter),
		pending:    make(map[string]*birState),
	}
}

// newProfile returns an empty profile for a local subscription.
func (b *cbc) newProfile() *bitvector.Profile { return bitvector.NewProfile(b.capacity) }

func (b *cbc) registerPublisher(adv *message.Advertisement) {
	b.publishers[adv.ID] = &pubMeter{adv: adv, started: b.clock(), lastSeq: -1}
}

func (b *cbc) unregisterPublisher(advID string) {
	delete(b.publishers, advID)
}

// recordPublication meters a publication sent by a local publisher;
// envSize is its envelope's EncodedSize.
func (b *cbc) recordPublication(pub *message.Publication, envSize int) {
	m, ok := b.publishers[pub.AdvID]
	if !ok {
		return
	}
	m.msgs++
	m.bytes += envSize - message.EnvelopeOverhead
	if pub.Seq > m.lastSeq {
		m.lastSeq = pub.Seq
	}
}

// stats derives the publisher profile reported in BIA messages: rate and
// bandwidth over the metering window plus the last message ID, against
// which the bit vectors recorded for this publisher can be synchronized
// (Profile.Sync); no code on the plan path does so yet (ROADMAP item 24).
func (m *pubMeter) stats(now float64) *bitvector.PublisherStats {
	elapsed := now - m.started
	if elapsed <= 0 {
		elapsed = 1
	}
	return &bitvector.PublisherStats{
		AdvID:     m.adv.ID,
		Rate:      float64(m.msgs) / elapsed,
		Bandwidth: float64(m.bytes) / elapsed,
		LastSeq:   m.lastSeq,
	}
}

// info assembles this broker's BrokerInfo contribution. Profiles are
// cloned as recorded, so the caller owns the result; they are not
// synchronized against the local publishers' last sequence numbers, so each
// vector's window ends at the last publication its subscription sank
// (ROADMAP item 24).
func (c *Core) info() message.BrokerInfo {
	now := c.cfg.Clock()
	bi := message.BrokerInfo{
		ID:              c.cfg.ID,
		URL:             c.cfg.URL,
		Delay:           c.cfg.Delay,
		OutputBandwidth: c.cfg.OutputBandwidth,
	}
	subs := c.engine.Subscriptions()
	slices.SortFunc(subs, func(a, b *message.Subscription) int { return strings.Compare(a.ID, b.ID) })
	for _, sub := range subs {
		slot, _ := c.engine.Slot(sub.ID)
		if p := c.routes[slot].prof; p != nil {
			bi.Subscriptions = append(bi.Subscriptions, message.SubscriptionInfo{Sub: sub, Profile: p.Clone()})
		}
	}
	advIDs := make([]string, 0, len(c.cbc.publishers))
	for id := range c.cbc.publishers {
		advIDs = append(advIDs, id)
	}
	sort.Strings(advIDs)
	for _, id := range advIDs {
		m := c.cbc.publishers[id]
		bi.Publishers = append(bi.Publishers, message.PublisherInfo{
			Adv:   m.adv,
			Stats: m.stats(now),
		})
	}
	return bi
}

// handleBIR implements the flood half of the information-gathering
// protocol: broadcast the BIR to all other neighbors and answer with a BIA
// once every forwarded neighbor has answered (immediately, for leaves).
// The overlay is a tree, so each broker sees each request once; a
// duplicate (non-tree overlay) is answered with an empty BIA to keep the
// initiator's accounting consistent.
func (c *Core) handleBIR(from Endpoint, bir *message.BIR, out []Outgoing) []Outgoing {
	if _, dup := c.cbc.pending[bir.RequestID]; dup {
		return append(out, Outgoing{
			To:  from,
			Env: &message.Envelope{Kind: message.KindBIA, BIA: &message.BIA{RequestID: bir.RequestID}},
		})
	}
	st := &birState{parent: from, waiting: make(map[string]bool)}
	c.cbc.pending[bir.RequestID] = st
	env := &message.Envelope{Kind: message.KindBIR, BIR: bir}
	for _, n := range c.neighbors {
		if from.Kind == KindBroker && n == from.ID {
			continue
		}
		st.waiting[n] = true
		out = append(out, Outgoing{To: Endpoint{Kind: KindBroker, ID: n}, Env: env})
	}
	if len(st.waiting) == 0 {
		out = c.finishBIR(bir.RequestID, out)
	}
	return out
}

// handleBIA aggregates a child's answer and replies upward once complete.
func (c *Core) handleBIA(from Endpoint, bia *message.BIA, out []Outgoing) []Outgoing {
	st, ok := c.cbc.pending[bia.RequestID]
	if !ok || from.Kind != KindBroker || !st.waiting[from.ID] {
		return out
	}
	delete(st.waiting, from.ID)
	st.infos = append(st.infos, bia.Infos...)
	if len(st.waiting) == 0 {
		out = c.finishBIR(bia.RequestID, out)
	}
	return out
}

// finishBIR sends the aggregated BIA (own info plus every child's) to the
// request's parent.
func (c *Core) finishBIR(requestID string, out []Outgoing) []Outgoing {
	st := c.cbc.pending[requestID]
	delete(c.cbc.pending, requestID)
	c.inst.BIRRounds.Inc()
	infos := append([]message.BrokerInfo{c.info()}, st.infos...)
	return append(out, Outgoing{
		To:  st.parent,
		Env: &message.Envelope{Kind: message.KindBIA, BIA: &message.BIA{RequestID: requestID, Infos: infos}},
	})
}
