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
	// Path is the broker path from the publisher's broker to the
	// delivering broker inclusive; populated only when the network's
	// TracePaths flag is set.
	Path []string
}

// Client is a simulated endpoint: it records everything delivered to it
// unless the network has an observer installed.
type Client struct {
	ID     string
	Broker string
	// Delivered accumulates publications in arrival order (nil when the
	// network routes deliveries to an observer instead).
	Delivered []Delivery
	// BIAs accumulates Broker Information Answers (for CROC clients).
	BIAs []*message.BIA
}

// queued is one in-flight message.
type queued struct {
	toBroker string
	toClient string
	from     broker.Endpoint
	env      *message.Envelope
	delay    float64
	path     []string
}

// Network wires broker cores and clients together and delivers messages in
// deterministic FIFO order under a virtual clock.
type Network struct {
	// TracePaths records full broker paths on deliveries (costs memory;
	// tests use it, large experiments leave it off).
	TracePaths bool
	// OnDelivery, when non-nil, receives every client publication delivery
	// instead of appending it to the client's log.
	OnDelivery func(Delivery)

	brokers map[string]*broker.Core
	clients map[string]*Client
	// queue[head:] is in flight; Drain empties it and reuses its array.
	queue []queued
	head  int
	// outs is the buffer every Core.Handle call of Drain appends to.
	outs      []broker.Outgoing
	now       float64
	delivered int
}

// NewNetwork returns an empty network at virtual time zero with path
// tracing enabled (the convenient default for tests and small runs).
func NewNetwork() *Network {
	return &Network{
		TracePaths: true,
		brokers:    make(map[string]*broker.Core),
		clients:    make(map[string]*Client),
	}
}

// Now returns the virtual time in seconds.
func (n *Network) Now() float64 { return n.now }

// Advance moves the virtual clock forward by d seconds.
func (n *Network) Advance(d float64) { n.now += d }

// AddBroker creates a broker core on this network. The core's clock is the
// network's virtual clock.
func (n *Network) AddBroker(cfg broker.Config) (*broker.Core, error) {
	if _, dup := n.brokers[cfg.ID]; dup {
		return nil, fmt.Errorf("sim: broker %q already exists", cfg.ID)
	}
	cfg.Clock = n.Now
	core, err := broker.New(cfg)
	if err != nil {
		return nil, err
	}
	n.brokers[cfg.ID] = core
	return core, nil
}

// Broker returns a broker core by ID, or nil.
func (n *Network) Broker(id string) *broker.Core { return n.brokers[id] }

// Brokers returns all broker IDs, sorted.
func (n *Network) Brokers() []string {
	out := make([]string, 0, len(n.brokers))
	for id := range n.brokers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ConnectBrokers links two brokers bidirectionally.
func (n *Network) ConnectBrokers(a, b string) error {
	ba, ok := n.brokers[a]
	if !ok {
		return fmt.Errorf("sim: unknown broker %q", a)
	}
	bb, ok := n.brokers[b]
	if !ok {
		return fmt.Errorf("sim: unknown broker %q", b)
	}
	ba.AddNeighbor(b)
	bb.AddNeighbor(a)
	return nil
}

// AttachClient creates a client attached to the given broker.
func (n *Network) AttachClient(clientID, brokerID string) (*Client, error) {
	if _, dup := n.clients[clientID]; dup {
		return nil, fmt.Errorf("sim: client %q already exists", clientID)
	}
	core, ok := n.brokers[brokerID]
	if !ok {
		return nil, fmt.Errorf("sim: unknown broker %q", brokerID)
	}
	cl := &Client{ID: clientID, Broker: brokerID}
	n.clients[clientID] = cl
	core.AddClient(clientID)
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
	n.queue = append(n.queue, queued{
		toBroker: cl.Broker,
		from:     broker.Endpoint{Kind: broker.KindClient, ID: clientID},
		env:      env,
	})
	return n.Drain()
}

// Drain processes the queue until quiescence, routing every emitted
// message and accumulating the modeled delivery delay of publications.
// On an error the failed message is dropped and the rest stay queued.
func (n *Network) Drain() error {
	for n.head < len(n.queue) {
		q := n.queue[n.head]
		n.head++
		if q.toClient != "" {
			if err := n.deliverToClient(q); err != nil {
				return err
			}
			continue
		}
		core, ok := n.brokers[q.toBroker]
		if !ok {
			return fmt.Errorf("sim: message to unknown broker %q", q.toBroker)
		}
		// Matching happens once on arrival; charge its delay to every
		// message the broker emits for this input.
		arrivalDelay := q.delay
		if q.env.Kind == message.KindPublication {
			arrivalDelay += core.MatchingDelaySeconds()
		}
		var err error
		n.outs, err = core.Handle(q.from, q.env, n.outs[:0])
		if err != nil {
			return err
		}
		var path []string
		if n.TracePaths && q.env.Kind == message.KindPublication {
			path = append(append([]string{}, q.path...), q.toBroker)
		}
		self := broker.Endpoint{Kind: broker.KindBroker, ID: q.toBroker}
		bw := core.OutputBandwidth()
		// The copies of one fan-out share their envelope, so its size is
		// computed once per run of outputs carrying it, as Core does.
		var sized *message.Envelope
		size := 0
		for _, o := range n.outs {
			nq := queued{from: self, env: o.Env, path: path}
			if o.Env.Kind == message.KindPublication {
				if o.Env != sized {
					sized, size = o.Env, o.Env.EncodedSize()
				}
				// The core emits shared publication envelopes with the
				// hop count carried in Outgoing.Hops (see broker.Outgoing);
				// materialize it here, at enqueue time, copying only when
				// the count actually differs.
				if o.Env.Pub.Hops != o.Hops {
					pubCopy := *o.Env.Pub
					pubCopy.Hops = o.Hops
					nq.env = &message.Envelope{Kind: message.KindPublication, Pub: &pubCopy}
				}
				nq.delay = arrivalDelay + float64(size)/bw
				if o.To.Kind == broker.KindBroker {
					nq.delay += DefaultLinkLatency
				}
			}
			if o.To.Kind == broker.KindBroker {
				nq.toBroker = o.To.ID
			} else {
				nq.toClient = o.To.ID
			}
			n.queue = append(n.queue, nq)
		}
	}
	clear(n.queue)
	n.queue, n.head = n.queue[:0], 0
	return nil
}

// deliverToClient hands a message to its client (or the observer).
func (n *Network) deliverToClient(q queued) error {
	cl, ok := n.clients[q.toClient]
	if !ok {
		return fmt.Errorf("sim: message to unknown client %q", q.toClient)
	}
	switch q.env.Kind {
	case message.KindPublication:
		d := Delivery{
			ClientID: q.toClient,
			Pub:      q.env.Pub,
			Hops:     q.env.Pub.Hops,
			Delay:    q.delay,
			Path:     q.path,
		}
		n.delivered++
		if n.OnDelivery != nil {
			n.OnDelivery(d)
		} else {
			cl.Delivered = append(cl.Delivered, d)
		}
	case message.KindBIA:
		cl.BIAs = append(cl.BIAs, q.env.BIA)
	}
	return nil
}

// TotalDeliveries returns the count of publications delivered to clients.
func (n *Network) TotalDeliveries() int { return n.delivered }

// ResetClientLogs clears every client's delivery and BIA logs and the
// global delivery counter; used between the profiling and measurement
// phases of an experiment.
func (n *Network) ResetClientLogs() {
	for _, cl := range n.clients {
		cl.Delivered = nil
		cl.BIAs = nil
	}
	n.delivered = 0
}
