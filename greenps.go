// Package greenps is a from-scratch Go implementation of the green
// resource allocation algorithms for content-based publish/subscribe
// systems described in Cheung & Jacobsen, "Green Resource Allocation
// Algorithms for Publish/Subscribe Systems" (ICDCS 2011): a bit-vector
// supported resource allocation framework, the FBF, BIN PACKING, and CRAM
// subscription allocation algorithms (with the INTERSECT, XOR, IOS, and
// IOU closeness metrics), a recursive broker overlay construction
// algorithm, and GRAPE publisher relocation — together with the
// filter-based broker substrate they reconfigure.
//
// This package is the public facade: it exposes live brokers and clients
// over TCP, the three-phase CROC reconfiguration, and the virtual-time
// experiment harness through plain Go types and the PADRES-style filter
// string language, e.g.
//
//	[class,=,'STOCK'],[symbol,=,'YHOO'],[low,<,19]
//
// The full machinery lives under internal/; see DESIGN.md for the map.
package greenps

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/client"
	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/croc"
	"github.com/greenps/greenps/internal/grape"
	"github.com/greenps/greenps/internal/message"
)

// Algorithms returns the reconfiguration algorithm names accepted by
// Reconfigure, in the paper's order: FBF, BINPACKING, CRAM-INTERSECT,
// CRAM-XOR, CRAM-IOS, CRAM-IOU, PAIRWISE-K, PAIRWISE-N.
func Algorithms() []string { return core.Algorithms() }

// BrokerOptions configures a live broker.
type BrokerOptions struct {
	// ID is the broker identifier (required).
	ID string
	// ListenAddr is the TCP bind address; empty means 127.0.0.1:0.
	ListenAddr string
	// OutputBandwidth throttles output in bytes/s (0 = unthrottled).
	OutputBandwidth float64
	// MatchingDelayPerSub and MatchingDelayBase define the linear
	// matching-delay model reported to the coordinator, in seconds.
	MatchingDelayPerSub float64
	MatchingDelayBase   float64
}

// Broker is a running live broker.
type Broker struct {
	node *broker.Node
}

// nodeConfig is the live broker configuration the options describe.
func (o BrokerOptions) nodeConfig() broker.NodeConfig {
	addr := o.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return broker.NodeConfig{
		ID:              o.ID,
		ListenAddr:      addr,
		OutputBandwidth: o.OutputBandwidth,
		Delay: message.MatchingDelayFn{
			PerSub: o.MatchingDelayPerSub,
			Base:   o.MatchingDelayBase,
		},
	}
}

// StartBroker launches a broker serving on TCP.
func StartBroker(o BrokerOptions) (*Broker, error) {
	n, err := broker.StartNode(o.nodeConfig())
	if err != nil {
		return nil, err
	}
	return &Broker{node: n}, nil
}

// ID returns the broker identifier.
func (b *Broker) ID() string { return b.node.ID() }

// Addr returns the broker's listen address.
func (b *Broker) Addr() string { return b.node.Addr() }

// ConnectNeighbor links this broker to another one.
func (b *Broker) ConnectNeighbor(addr string) error { return b.node.ConnectNeighbor(addr) }

// Stop shuts the broker down.
func (b *Broker) Stop() { b.node.Stop() }

// Delivery is one publication received by a subscriber.
type Delivery struct {
	// PublisherID is the advertisement ID of the publisher.
	PublisherID string
	// Seq is the publication's per-publisher sequence number.
	Seq int
	// Hops is the number of broker-to-broker hops traversed.
	Hops int
	// Attrs holds the content: string, float64, or bool values.
	Attrs map[string]any
}

// deliveries converts a stream of received publications into Deliveries;
// the returned channel closes when pubs does.
func deliveries(pubs <-chan *message.Publication) <-chan Delivery {
	out := make(chan Delivery, 64)
	go func() {
		defer close(out)
		for pub := range pubs {
			d := Delivery{
				PublisherID: pub.AdvID,
				Seq:         pub.Seq,
				Hops:        pub.Hops,
				Attrs:       make(map[string]any, len(pub.Attrs)),
			}
			for k, v := range pub.Attrs {
				switch v.Kind {
				case message.KindString:
					d.Attrs[k] = v.Str
				case message.KindNumber:
					d.Attrs[k] = v.Num
				case message.KindBool:
					d.Attrs[k] = v.B
				}
			}
			out <- d
		}
	}()
	return out
}

// attrValues converts publication content given as Go values — string,
// float64, int or bool — into message values.
func attrValues(attrs map[string]any) (map[string]message.Value, error) {
	converted := make(map[string]message.Value, len(attrs))
	for k, v := range attrs {
		switch x := v.(type) {
		case string:
			converted[k] = message.String(x)
		case float64:
			converted[k] = message.Number(x)
		case int:
			converted[k] = message.Number(float64(x))
		case bool:
			converted[k] = message.Bool(x)
		default:
			return nil, fmt.Errorf("greenps: unsupported attribute type %T for %q", v, k)
		}
	}
	return converted, nil
}

// Client is a live publish/subscribe client.
type Client struct {
	c    *client.Client
	subs atomic.Uint64 // Subscribe calls so far; part of each subscription ID

	deliverOnce sync.Once
	delivered   <-chan Delivery // the one converted stream Deliveries returns
}

// Connect attaches a client to a broker.
func Connect(id, brokerAddr string) (*Client, error) {
	c, err := client.Connect(id, brokerAddr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Advertise announces the publication space this client will publish,
// given as a filter string. The advertisement ID is returned; it is
// stamped into every publication.
func (c *Client) Advertise(filter string) (string, error) {
	preds, err := message.ParsePredicates(filter)
	if err != nil {
		return "", err
	}
	advID := "ADV-" + c.c.ID()
	adv := message.NewAdvertisement(advID, c.c.ID(), preds)
	if err := c.c.Advertise(adv); err != nil {
		return "", err
	}
	return advID, nil
}

// Publish sends one publication under a previously advertised ID. Values
// may be string, float64, int, or bool.
func (c *Client) Publish(advID string, attrs map[string]any) error {
	converted, err := attrValues(attrs)
	if err != nil {
		return err
	}
	return c.c.Publish(advID, converted)
}

// Subscribe registers a filter and returns the subscription ID.
func (c *Client) Subscribe(filter string) (string, error) {
	preds, err := message.ParsePredicates(filter)
	if err != nil {
		return "", err
	}
	// The timestamp keeps a reconnected client clear of its own stale
	// subscriptions; the counter separates calls inside one clock tick,
	// whose IDs the broker would otherwise take for one subscription.
	subID := fmt.Sprintf("sub-%s-%d-%d", c.c.ID(), time.Now().UnixNano(), c.subs.Add(1))
	sub := message.NewSubscription(subID, c.c.ID(), preds)
	if err := c.c.Subscribe(sub); err != nil {
		return "", err
	}
	return subID, nil
}

// Unsubscribe withdraws a subscription.
func (c *Client) Unsubscribe(subID string) error { return c.c.Unsubscribe(subID) }

// Deliveries returns the channel of received publications; every call
// returns the same channel. It closes when the connection ends.
func (c *Client) Deliveries() <-chan Delivery {
	c.deliverOnce.Do(func() { c.delivered = deliveries(c.c.Publications()) })
	return c.delivered
}

// Close disconnects the client.
func (c *Client) Close() error { return c.c.Close() }

// PlanSummary describes a computed reconfiguration.
type PlanSummary struct {
	// Algorithm that produced the plan.
	Algorithm string
	// Brokers is the number of allocated brokers.
	Brokers int
	// Root is the overlay root broker ID.
	Root string
	// BrokerURLs maps allocated broker IDs to connect addresses.
	BrokerURLs map[string]string
	// Children maps each broker to its overlay children.
	Children map[string][]string
	// Subscribers maps subscription IDs to their new brokers.
	Subscribers map[string]string
	// Publishers maps advertisement IDs to their new brokers.
	Publishers map[string]string
	// ComputeTime is the planning time.
	ComputeTime time.Duration
}

// summarize describes a computed plan.
func summarize(plan *core.Plan) *PlanSummary {
	doc := croc.ToDoc(plan)
	return &PlanSummary{
		Algorithm:   plan.Algorithm,
		Brokers:     plan.NumBrokers(),
		Root:        doc.Root,
		BrokerURLs:  doc.Brokers,
		Children:    doc.Edges,
		Subscribers: doc.Subscribers,
		Publishers:  doc.Publishers,
		ComputeTime: plan.ComputeTime(),
	}
}

// plan gathers information through the broker at brokerAddr and runs the
// named algorithm; a timeout of zero or less means 30s.
func plan(brokerAddr, algorithm string, timeout time.Duration) (*core.Plan, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return croc.Reconfigure(brokerAddr, core.Config{Algorithm: algorithm, GrapeMode: grape.ModeLoad}, timeout, nil)
}

// Reconfigure runs the paper's three phases against a live overlay: gather
// information via BIR/BIA through any broker, allocate subscriptions with
// the named algorithm, construct the overlay recursively, and place
// publishers with GRAPE. The timeout bounds the information-gathering
// phase (0 = 30s). The returned plan is a description; applying it
// (re-instantiating brokers and reconnecting clients, as the paper does)
// is the deployer's job.
func Reconfigure(brokerAddr, algorithm string, timeout time.Duration) (*PlanSummary, error) {
	p, err := plan(brokerAddr, algorithm, timeout)
	if err != nil {
		return nil, err
	}
	return summarize(p), nil
}
