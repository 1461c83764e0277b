// Package deploy manages live greenps deployments end to end: it owns a
// set of running broker nodes and client connections, can bring up a
// topology, and — the paper's final step — can apply a CROC
// reconfiguration plan by re-instantiating every broker from a clean state
// and reconnecting the original clients to their newly assigned brokers
// ("we re-instantiate every broker in the system and have the original
// clients connect to the new broker instances", Section VI-A).
//
// Subscriber delivery channels are stable across reconfigurations: the
// Deployment multiplexes each subscriber's deliveries onto a channel that
// survives the underlying connection being swapped.
package deploy

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/client"
	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/telemetry"
	"github.com/greenps/greenps/internal/topology"
)

// publisherState tracks one publisher across reconfigurations.
type publisherState struct {
	clientID string
	adv      *message.Advertisement
	conn     *client.Client
	broker   string
}

// subscriberState tracks one subscriber across reconfigurations.
type subscriberState struct {
	clientID string
	sub      *message.Subscription
	conn     *client.Client
	broker   string
	out      chan *message.Publication
	stop     chan struct{} // closes the current pump
	wg       sync.WaitGroup
}

// Deployment owns live brokers and clients. It is safe for concurrent use
// of read accessors; mutations (StartBroker/Link/Add*/Apply/Close) must be
// serialized by the caller.
type Deployment struct {
	mu      sync.Mutex
	nodes   map[string]*broker.Node
	brokers map[string]broker.NodeConfig // original configs for re-instantiation
	pubs    map[string]*publisherState   // by advertisement ID
	subs    map[string]*subscriberState  // by subscription ID
	closed  bool
}

// New returns an empty deployment.
func New() *Deployment {
	return &Deployment{
		nodes:   make(map[string]*broker.Node),
		brokers: make(map[string]broker.NodeConfig),
		pubs:    make(map[string]*publisherState),
		subs:    make(map[string]*subscriberState),
	}
}

// errClosed is what a closed deployment answers every request for new work
// with: nothing would ever stop what it started.
var errClosed = errors.New("deploy: deployment closed")

// StartBroker launches a broker node and records its config for later
// re-instantiation.
func (d *Deployment) StartBroker(cfg broker.NodeConfig) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	if _, dup := d.nodes[cfg.ID]; dup {
		return fmt.Errorf("deploy: broker %q already running", cfg.ID)
	}
	n, err := broker.StartNode(cfg)
	if err != nil {
		return err
	}
	d.nodes[cfg.ID] = n
	d.brokers[cfg.ID] = cfg
	return nil
}

// Link connects two running brokers.
func (d *Deployment) Link(a, b string) error {
	d.mu.Lock()
	na, nb := d.nodes[a], d.nodes[b]
	d.mu.Unlock()
	if na == nil || nb == nil {
		return fmt.Errorf("deploy: link %s-%s references a broker that is not running", a, b)
	}
	return na.ConnectNeighbor(nb.Addr())
}

// BrokerAddr returns a running broker's address.
func (d *Deployment) BrokerAddr(id string) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.nodes[id]
	if !ok {
		return "", fmt.Errorf("deploy: broker %q not running", id)
	}
	return n.Addr(), nil
}

// RunningBrokers returns the IDs of running brokers, sorted.
func (d *Deployment) RunningBrokers() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.nodes))
	for id := range d.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// AddPublisher attaches a publisher client to a broker and advertises.
func (d *Deployment) AddPublisher(clientID, brokerID string, adv *message.Advertisement) error {
	addr, err := d.BrokerAddr(brokerID)
	if err != nil {
		return err
	}
	conn, err := client.Connect(clientID, addr)
	if err != nil {
		return err
	}
	if err := conn.Advertise(adv); err != nil {
		_ = conn.Close()
		return err
	}
	d.mu.Lock()
	if _, dup := d.pubs[adv.ID]; dup || d.closed {
		// Close outside the lock: Close flushes the wire and can stall on
		// a slow peer, and d.mu serializes every deployment accessor.
		d.mu.Unlock()
		_ = conn.Close()
		if dup {
			return fmt.Errorf("deploy: advertisement %q already registered", adv.ID)
		}
		return errClosed
	}
	d.pubs[adv.ID] = &publisherState{clientID: clientID, adv: adv, conn: conn, broker: brokerID}
	d.mu.Unlock()
	return nil
}

// Publish sends a publication under a registered advertisement.
func (d *Deployment) Publish(advID string, pub *message.Publication) error {
	d.mu.Lock()
	ps, ok := d.pubs[advID]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("deploy: unknown advertisement %q", advID)
	}
	return ps.conn.PublishAt(pub)
}

// AddSubscriber attaches a subscriber client and returns its stable
// delivery channel (it survives reconfigurations; it closes on Close).
func (d *Deployment) AddSubscriber(clientID, brokerID string, sub *message.Subscription) (<-chan *message.Publication, error) {
	addr, err := d.BrokerAddr(brokerID)
	if err != nil {
		return nil, err
	}
	conn, err := client.Connect(clientID, addr)
	if err != nil {
		return nil, err
	}
	if err := conn.Subscribe(sub); err != nil {
		_ = conn.Close()
		return nil, err
	}
	ss := &subscriberState{
		clientID: clientID,
		sub:      sub,
		conn:     conn,
		broker:   brokerID,
		out:      make(chan *message.Publication, 256),
	}
	d.mu.Lock()
	if _, dup := d.subs[sub.ID]; dup || d.closed {
		d.mu.Unlock()
		_ = conn.Close()
		if dup {
			return nil, fmt.Errorf("deploy: subscription %q already registered", sub.ID)
		}
		return nil, errClosed
	}
	d.subs[sub.ID] = ss
	d.mu.Unlock()
	ss.startPump()
	return ss.out, nil
}

// startPump forwards the current connection's deliveries to the stable
// channel until the connection's channel closes or stop is signaled.
func (ss *subscriberState) startPump() {
	stop := make(chan struct{})
	ss.stop = stop
	conn := ss.conn
	ss.wg.Add(1)
	go func() {
		defer ss.wg.Done()
		for {
			select {
			case pub, ok := <-conn.Publications():
				if !ok {
					return
				}
				select {
				case ss.out <- pub:
				case <-stop:
					return
				}
			case <-stop:
				return
			}
		}
	}()
}

// FromTopology brings up every broker, link, publisher, and subscriber of
// a parsed topology file. Subscriber channels are discarded; use
// AddSubscriber directly when deliveries matter.
func (d *Deployment) FromTopology(f *topology.File) error {
	for _, b := range f.Brokers {
		if err := d.StartBroker(broker.NodeConfig{
			ID:              b.ID,
			ListenAddr:      b.Addr,
			Delay:           b.Delay,
			OutputBandwidth: b.OutputBandwidth,
		}); err != nil {
			return err
		}
	}
	for _, l := range f.Links {
		if err := d.Link(l.A, l.B); err != nil {
			return err
		}
	}
	for _, p := range f.Publishers {
		adv := message.NewAdvertisement(p.AdvID, p.ID, p.Predicates)
		if err := d.AddPublisher(p.ID, p.Broker, adv); err != nil {
			return err
		}
	}
	for _, s := range f.Subscribers {
		sub := message.NewSubscription("sub-"+s.ID, s.ID, s.Predicates)
		if _, err := d.AddSubscriber(s.ID, s.Broker, sub); err != nil {
			return err
		}
	}
	return nil
}

// Apply executes a reconfiguration plan against the live deployment, the
// paper's way: start fresh broker instances for the plan's overlay (clean
// state), connect the new tree, reconnect every client to its assigned
// broker, then tear down the old brokers and connections. Subscriber
// delivery channels remain valid throughout.
//
// On the timeline, each of the five deployment steps becomes one span. A
// span is recorded only when its step completes, so a failed apply shows
// exactly the steps that finished. A nil timeline records nothing.
func (d *Deployment) Apply(plan *core.Plan, tl *telemetry.Timeline) error {
	// Snapshot everything the apply reads under the lock once; the
	// network steps below run unlocked (dialing and handshaking under
	// d.mu would stall every concurrent read accessor), and individual
	// state swaps re-take the lock so a concurrent Publish or Close never
	// observes a torn update.
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errClosed
	}
	oldNodes := d.nodes
	brokers := make(map[string]broker.NodeConfig, len(d.brokers))
	for id, cfg := range d.brokers {
		brokers[id] = cfg
	}
	pubs := make(map[string]*publisherState, len(d.pubs))
	for id, ps := range d.pubs {
		pubs[id] = ps
	}
	subs := make(map[string]*subscriberState, len(d.subs))
	for id, ss := range d.subs {
		subs[id] = ss
	}
	d.mu.Unlock()

	// 1. Fresh broker instances on new ports, same IDs and capacities.
	step := tl.StartSpan("apply: start fresh brokers")
	newNodes := make(map[string]*broker.Node, plan.Tree.NumBrokers())
	fail := func(err error) error {
		for _, n := range newNodes {
			n.Stop()
		}
		return err
	}
	for _, id := range plan.Tree.Brokers() {
		cfg, ok := brokers[id]
		if !ok {
			return fail(fmt.Errorf("deploy: plan allocates unknown broker %q", id))
		}
		cfg.ListenAddr = "127.0.0.1:0" // fresh instance, fresh port
		// The old instance still runs; fresh nodes replace them below.
		n, err := broker.StartNode(cfg)
		if err != nil {
			return fail(fmt.Errorf("deploy: restart broker %s: %w", id, err))
		}
		newNodes[id] = n
	}
	step()
	// 2. Overlay links per the constructed tree.
	step = tl.StartSpan("apply: connect overlay links")
	for parent, kids := range plan.Tree.Children {
		for _, k := range kids {
			if err := newNodes[parent].ConnectNeighbor(newNodes[k].Addr()); err != nil {
				return fail(fmt.Errorf("deploy: link %s-%s: %w", parent, k, err))
			}
		}
	}
	step()
	// 3. Reconnect publishers at their GRAPE-assigned brokers.
	step = tl.StartSpan("apply: reconnect publishers")
	type swap struct {
		old *client.Client
	}
	var swaps []swap
	for advID, ps := range pubs {
		target, ok := plan.Publishers[advID]
		if !ok {
			target = plan.Tree.Root
		}
		conn, err := client.Connect(ps.clientID, newNodes[target].Addr())
		if err != nil {
			return fail(fmt.Errorf("deploy: reconnect publisher %s: %w", ps.clientID, err))
		}
		if err := conn.Advertise(ps.adv); err != nil {
			_ = conn.Close()
			return fail(err)
		}
		d.mu.Lock()
		swaps = append(swaps, swap{old: ps.conn})
		ps.conn = conn
		ps.broker = target
		d.mu.Unlock()
	}
	step()
	// 4. Reconnect subscribers at their Phase-2/3 assigned brokers.
	step = tl.StartSpan("apply: reconnect subscribers")
	for subID, ss := range subs {
		target, ok := plan.Subscribers[subID]
		if !ok {
			target = plan.Tree.Root
		}
		conn, err := client.Connect(ss.clientID, newNodes[target].Addr())
		if err != nil {
			return fail(fmt.Errorf("deploy: reconnect subscriber %s: %w", ss.clientID, err))
		}
		if err := conn.Subscribe(ss.sub); err != nil {
			_ = conn.Close()
			return fail(err)
		}
		close(ss.stop) // stop the old pump (joined outside the lock)
		ss.wg.Wait()
		d.mu.Lock()
		old := ss.conn
		ss.conn = conn
		ss.broker = target
		d.mu.Unlock()
		ss.startPump()
		swaps = append(swaps, swap{old: old})
	}
	step()
	// 5. Tear down old client connections and all old brokers.
	step = tl.StartSpan("apply: tear down old instances")
	for _, s := range swaps {
		_ = s.old.Close()
	}
	for _, n := range oldNodes {
		n.Stop()
	}
	d.mu.Lock()
	d.nodes = newNodes
	d.mu.Unlock()
	step()
	return nil
}

// Close tears the whole deployment down and closes every delivery channel.
func (d *Deployment) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	nodes := d.nodes
	pubs := d.pubs
	subs := d.subs
	d.mu.Unlock()
	for _, ps := range pubs {
		_ = ps.conn.Close()
	}
	for _, ss := range subs {
		close(ss.stop)
		ss.wg.Wait()
		_ = ss.conn.Close()
		close(ss.out)
	}
	for _, n := range nodes {
		n.Stop()
	}
}
