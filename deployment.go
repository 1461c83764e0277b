package greenps

import (
	"fmt"
	"sync"
	"time"

	"github.com/greenps/greenps/internal/deploy"
	"github.com/greenps/greenps/internal/message"
)

// Deployment owns a fleet of live brokers and clients and can apply the
// paper's reconfiguration end to end: gather information from the running
// overlay, plan with any algorithm, re-instantiate the allocated brokers
// from a clean state, and reconnect every client — while subscriber
// delivery channels stay valid throughout.
type Deployment struct {
	d *deploy.Deployment

	mu      sync.Mutex // guards nextSeq
	nextSeq map[string]int
}

// NewDeployment returns an empty deployment.
func NewDeployment() *Deployment {
	return &Deployment{d: deploy.New(), nextSeq: make(map[string]int)}
}

// StartBroker launches a broker in this deployment.
func (dp *Deployment) StartBroker(o BrokerOptions) error { return dp.d.StartBroker(o.nodeConfig()) }

// Link connects two running brokers by ID.
func (dp *Deployment) Link(a, b string) error { return dp.d.Link(a, b) }

// Brokers returns the IDs of currently running brokers.
func (dp *Deployment) Brokers() []string { return dp.d.RunningBrokers() }

// BrokerAddr returns a running broker's connect address.
func (dp *Deployment) BrokerAddr(id string) (string, error) { return dp.d.BrokerAddr(id) }

// AddPublisher attaches a publisher with the given advertisement filter
// and returns its advertisement ID.
func (dp *Deployment) AddPublisher(clientID, brokerID, filter string) (string, error) {
	preds, err := message.ParsePredicates(filter)
	if err != nil {
		return "", err
	}
	advID := "ADV-" + clientID
	adv := message.NewAdvertisement(advID, clientID, preds)
	if err := dp.d.AddPublisher(clientID, brokerID, adv); err != nil {
		return "", err
	}
	return advID, nil
}

// Publish sends one publication under a previously added publisher. It is
// safe for concurrent use: each publication of one publisher gets its own
// sequence number.
func (dp *Deployment) Publish(advID string, attrs map[string]any) error {
	converted, err := attrValues(attrs)
	if err != nil {
		return err
	}
	dp.mu.Lock()
	seq := dp.nextSeq[advID]
	dp.nextSeq[advID] = seq + 1
	dp.mu.Unlock()
	return dp.d.Publish(advID, message.NewPublication(advID, seq, converted))
}

// AddSubscriber attaches a subscriber with the given filter. The returned
// channel survives reconfigurations and closes when the deployment closes.
func (dp *Deployment) AddSubscriber(clientID, brokerID, filter string) (string, <-chan Delivery, error) {
	preds, err := message.ParsePredicates(filter)
	if err != nil {
		return "", nil, err
	}
	subID := "sub-" + clientID
	sub := message.NewSubscription(subID, clientID, preds)
	raw, err := dp.d.AddSubscriber(clientID, brokerID, sub)
	if err != nil {
		return "", nil, err
	}
	return subID, deliveries(raw), nil
}

// ReconfigureAndApply runs the three phases against the running overlay
// and applies the resulting plan: the paper's complete loop. It returns
// the applied plan's summary.
func (dp *Deployment) ReconfigureAndApply(algorithm string, timeout time.Duration) (*PlanSummary, error) {
	ids := dp.d.RunningBrokers()
	if len(ids) == 0 {
		return nil, fmt.Errorf("greenps: deployment has no running brokers")
	}
	entry, err := dp.d.BrokerAddr(ids[0])
	if err != nil {
		return nil, err
	}
	p, err := plan(entry, algorithm, timeout)
	if err != nil {
		return nil, err
	}
	if err := dp.d.Apply(p, nil); err != nil {
		return nil, err
	}
	return summarize(p), nil
}

// Close tears the deployment down.
func (dp *Deployment) Close() { dp.d.Close() }
