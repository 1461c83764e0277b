package deploy

import "fmt"

// SubscriberBroker reports where a subscription currently lives.
func (d *Deployment) SubscriberBroker(subID string) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ss, ok := d.subs[subID]
	if !ok {
		return "", fmt.Errorf("deploy: unknown subscription %q", subID)
	}
	return ss.broker, nil
}

// PublisherBroker reports where a publisher currently lives.
func (d *Deployment) PublisherBroker(advID string) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ps, ok := d.pubs[advID]
	if !ok {
		return "", fmt.Errorf("deploy: unknown advertisement %q", advID)
	}
	return ps.broker, nil
}
