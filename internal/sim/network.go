// Package sim provides the deterministic, virtual-time evaluation harness
// used to reproduce the paper's experiments at laptop scale: it runs the
// real broker routing code (package broker) over in-process links, replays
// workloads, and measures the quantities the paper reports — per-broker
// message rates, hop counts, modeled delivery delays, allocated broker
// counts, and utilizations.
//
// The harness replaces the paper's 21-node cluster and SciNet deployments.
// Because every evaluation metric is a flow quantity fully determined by
// topology, routing state, and workload, executing the identical routing
// logic in virtual time measures them exactly. Delivery delay is
// accumulated along the real forwarding path using the paper's own linear
// matching-delay model plus a transmission term (bytes over the sending
// broker's output bandwidth) and a constant intra-datacenter link latency.
package sim

import (
	"fmt"
	"sort"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/message"
)

// DefaultLinkLatency is the one-way broker-to-broker latency of the
// modeled datacenter network, in seconds (0.5 ms), added once per hop.
const DefaultLinkLatency = 0.0005

// Delivery records one publication arriving at a client.
type Delivery struct {
	ClientID string
	Pub      *message.Publication
	// Hops is the broker-to-broker hop count the publication traversed.
	Hops int
	// Delay is the modeled end-to-end delivery delay in seconds.
	Delay float64
}

// Client is a simulated endpoint. Its publications go to the network's
// OnDelivery observer; the BIAs it receives are kept here.
type Client struct {
	Broker string
	// BIAs accumulates Broker Information Answers (for CROC clients).
	BIAs []*message.BIA
}

// queued is one in-flight message. dst is the index of the destination
// broker in the network's nodes, resolved when the message is queued, or
// -1 when to names a client or a broker the sender has no link to.
type queued struct {
	to   broker.Endpoint
	dst  int32
	from broker.Endpoint
	env  *message.Envelope
	// size is a publication envelope's EncodedSize, walked once when the
	// publication enters the network and carried from hop to hop; zero
	// for other kinds.
	size  int
	delay float64
}

// node is one broker of the network: its core, the endpoint its
// emissions come from and its links to neighbor brokers.
type node struct {
	core  *broker.Core
	self  broker.Endpoint
	links []link
}

// link names a neighbor broker and its index in the network's nodes. A
// core emits only to its neighbors, so its outputs resolve by a scan of
// its few links.
type link struct {
	id string
	at int32
}

// hopCopy is a publication envelope re-stamped with another hop count,
// allocated as one object. Its Attrs map is the original's.
type hopCopy struct {
	env message.Envelope
	pub message.Publication
}

// withHops returns a copy of a publication envelope whose publication
// carries the given hop count.
func withHops(env *message.Envelope, hops int) *message.Envelope {
	c := &hopCopy{pub: *env.Pub}
	c.pub.Hops = hops
	c.env = message.Envelope{Kind: message.KindPublication, Pub: &c.pub}
	return &c.env
}

// Network wires broker cores and clients together and delivers messages in
// deterministic FIFO order under a virtual clock.
type Network struct {
	// OnDelivery receives every publication delivered to a client, in
	// arrival order, or nil.
	OnDelivery func(Delivery)

	// index maps a broker ID to its position in nodes.
	index   map[string]int32
	nodes   []node
	clients map[string]*Client
	// queue[head:] is in flight; Drain empties it and reuses its array.
	queue []queued
	head  int
	// in is the one-message batch Drain hands a core, outs the buffer
	// every core appends to.
	in   [1]broker.Inbound
	outs []broker.Outgoing
	now  float64
}

// NewNetwork returns an empty network at virtual time zero.
func NewNetwork() *Network {
	return &Network{
		index:   make(map[string]int32),
		clients: make(map[string]*Client),
	}
}

// Now returns the virtual time in seconds.
func (n *Network) Now() float64 { return n.now }

// Advance moves the virtual clock forward by d seconds.
func (n *Network) Advance(d float64) { n.now += d }

// AddBroker creates a broker core on this network. The core's clock is the
// network's virtual clock.
func (n *Network) AddBroker(cfg broker.Config) (*broker.Core, error) {
	if _, dup := n.index[cfg.ID]; dup {
		return nil, fmt.Errorf("sim: broker %q already exists", cfg.ID)
	}
	cfg.Clock = n.Now
	core, err := broker.New(cfg)
	if err != nil {
		return nil, err
	}
	n.index[cfg.ID] = int32(len(n.nodes))
	n.nodes = append(n.nodes, node{core: core, self: broker.Endpoint{Kind: broker.KindBroker, ID: cfg.ID}})
	return core, nil
}

// Broker returns a broker core by ID, or nil.
func (n *Network) Broker(id string) *broker.Core {
	if i, ok := n.index[id]; ok {
		return n.nodes[i].core
	}
	return nil
}

// Brokers returns all broker IDs, sorted.
func (n *Network) Brokers() []string {
	out := make([]string, 0, len(n.nodes))
	for id := range n.index {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ConnectBrokers links two brokers bidirectionally.
func (n *Network) ConnectBrokers(a, b string) error {
	ia, ok := n.index[a]
	if !ok {
		return fmt.Errorf("sim: unknown broker %q", a)
	}
	ib, ok := n.index[b]
	if !ok {
		return fmt.Errorf("sim: unknown broker %q", b)
	}
	na, nb := &n.nodes[ia], &n.nodes[ib]
	na.core.AddNeighbor(b)
	nb.core.AddNeighbor(a)
	na.links = append(na.links, link{id: b, at: ib})
	nb.links = append(nb.links, link{id: a, at: ia})
	return nil
}

// AttachClient creates a client attached to the given broker.
func (n *Network) AttachClient(clientID, brokerID string) (*Client, error) {
	if _, dup := n.clients[clientID]; dup {
		return nil, fmt.Errorf("sim: client %q already exists", clientID)
	}
	if _, ok := n.index[brokerID]; !ok {
		return nil, fmt.Errorf("sim: unknown broker %q", brokerID)
	}
	cl := &Client{Broker: brokerID}
	n.clients[clientID] = cl
	return cl, nil
}

// Client returns a client by ID, or nil.
func (n *Network) Client(id string) *Client { return n.clients[id] }

// SendFromClient injects a message from a client into its broker and
// drains the network to quiescence.
func (n *Network) SendFromClient(clientID string, env *message.Envelope) error {
	cl, ok := n.clients[clientID]
	if !ok {
		return fmt.Errorf("sim: unknown client %q", clientID)
	}
	q := queued{
		to:   broker.Endpoint{Kind: broker.KindBroker, ID: cl.Broker},
		dst:  n.lookup(cl.Broker),
		from: broker.Endpoint{Kind: broker.KindClient, ID: clientID},
		env:  env,
	}
	if env.Kind == message.KindPublication && env.Pub != nil {
		q.size = env.EncodedSize()
	}
	n.queue = append(n.queue, q)
	return n.Drain()
}

// lookup returns the index of a broker, or -1 when the network has none.
func (n *Network) lookup(id string) int32 {
	if i, ok := n.index[id]; ok {
		return i
	}
	return -1
}

// resolve returns the index of the linked broker a core at index from
// emits to, or -1 when id names none of its links.
func (n *Network) resolve(from int32, id string) int32 {
	for _, l := range n.nodes[from].links {
		if l.id == id {
			return l.at
		}
	}
	return -1
}

// Drain processes the queue until quiescence, routing every emitted
// message and accumulating the modeled delivery delay of publications.
// On an error the failed message is dropped and the rest stay queued.
func (n *Network) Drain() error {
	for n.head < len(n.queue) {
		q := &n.queue[n.head]
		n.head++
		if q.to.Kind == broker.KindClient {
			if err := n.deliverToClient(q); err != nil {
				return err
			}
			continue
		}
		if q.dst < 0 {
			return fmt.Errorf("sim: message to unknown broker %q", q.to.ID)
		}
		at := q.dst
		nd := &n.nodes[at]
		// Matching happens once on arrival; charge its delay to every
		// message the broker emits for this input.
		isPub := q.env.Kind == message.KindPublication
		arrivalDelay := q.delay
		if isPub {
			arrivalDelay += nd.core.MatchingDelaySeconds()
		}
		n.in[0] = broker.Inbound{From: q.from, Env: q.env, Size: q.size}
		var err error
		n.outs, err = nd.core.HandleBatch(n.in[:], n.outs[:0])
		n.in[0] = broker.Inbound{}
		if err != nil {
			return err
		}
		bw := nd.core.OutputBandwidth()
		// Every publication the core emits for a publication input shares
		// its content, hence its size. The core emits shared envelopes with
		// the hop count in Outgoing.Hops (see broker.Outgoing); the hop
		// count is materialized here, one copy per count that differs from
		// the envelope's — the core emits all copies of one count in one
		// run (the emission-run invariant, see broker.Outgoing).
		size := q.size
		var src, copied *message.Envelope
		copiedHops := 0
		for _, o := range n.outs {
			env, dst, delay := o.Env, int32(-1), 0.0
			if o.To.Kind == broker.KindBroker {
				dst = n.resolve(at, o.To.ID)
			}
			if env.Kind == message.KindPublication {
				if env.Pub.Hops != o.Hops {
					if env != src || o.Hops != copiedHops {
						src, copiedHops, copied = env, o.Hops, withHops(env, o.Hops)
					}
					env = copied
				}
				delay = arrivalDelay + float64(size)/bw
				if o.To.Kind == broker.KindBroker {
					delay += DefaultLinkLatency
				}
			}
			// Filled in place: a queued is too large to copy cheaply.
			n.queue = append(n.queue, queued{})
			nq := &n.queue[len(n.queue)-1]
			nq.to, nq.dst, nq.from, nq.env = o.To, dst, nd.self, env
			nq.size, nq.delay = size, delay
		}
	}
	clear(n.queue)
	n.queue, n.head = n.queue[:0], 0
	return nil
}

// deliverToClient hands a publication to the observer and a BIA to its
// client. Only a core's own clients receive publications, so a
// publication is observed without looking its client up.
func (n *Network) deliverToClient(q *queued) error {
	switch q.env.Kind {
	case message.KindPublication:
		if n.OnDelivery != nil {
			n.OnDelivery(Delivery{
				ClientID: q.to.ID,
				Pub:      q.env.Pub,
				Hops:     q.env.Pub.Hops,
				Delay:    q.delay,
			})
		}
	case message.KindBIA:
		cl, ok := n.clients[q.to.ID]
		if !ok {
			return fmt.Errorf("sim: message to unknown client %q", q.to.ID)
		}
		cl.BIAs = append(cl.BIAs, q.env.BIA)
	}
	return nil
}
