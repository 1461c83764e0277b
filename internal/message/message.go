package message

import (
	"fmt"
	"sort"
	"strings"
)

// Publication is a content-based event: a set of typed attributes published
// under an advertisement. Every publication carries the globally unique
// advertisement ID of its publisher and a per-publisher monotonically
// increasing sequence number — exactly the two fields the paper's bit-vector
// profiling framework requires (Section III-B).
type Publication struct {
	// AdvID identifies the advertisement (and hence the publisher) that
	// emitted this publication.
	AdvID string `json:"adv"`
	// Seq is the per-publisher message ID: an integer counter appended by
	// the publisher to every publication.
	Seq int `json:"seq"`
	// Attrs carries the content.
	Attrs map[string]Value `json:"attrs"`
	// Hops counts broker-to-broker hops traversed so far. It is incremented
	// by each broker on arrival from another broker.
	Hops int `json:"hops,omitempty"`
}

// NewPublication constructs a publication. The attribute map is copied so
// callers may reuse their map.
func NewPublication(advID string, seq int, attrs map[string]Value) *Publication {
	cp := make(map[string]Value, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	return &Publication{AdvID: advID, Seq: seq, Attrs: cp}
}

// EncodedSize approximates the publication's wire size in bytes; it is the
// quantity bandwidth limiters and CROC's load estimator account in.
func (p *Publication) EncodedSize() int {
	n := len(p.AdvID) + 8 + 4
	for k, v := range p.Attrs {
		n += len(k) + 2 + v.EncodedSize()
	}
	return n
}

// String renders the publication with attributes in sorted order.
func (p *Publication) String() string {
	keys := make([]string, 0, len(p.Attrs))
	for k := range p.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "P(%s#%d)", p.AdvID, p.Seq)
	for _, k := range keys {
		fmt.Fprintf(&b, "[%s,%s]", k, p.Attrs[k].String())
	}
	return b.String()
}

// Subscription is a conjunction of predicates registered by a subscriber.
type Subscription struct {
	// ID is globally unique across the system.
	ID string `json:"id"`
	// SubscriberID names the owning client.
	SubscriberID string `json:"sub"`
	// Predicates is the conjunctive filter.
	Predicates []Predicate `json:"preds"`
}

// NewSubscription constructs a subscription; the predicate slice is copied.
func NewSubscription(id, subscriberID string, preds []Predicate) *Subscription {
	cp := make([]Predicate, len(preds))
	copy(cp, preds)
	return &Subscription{ID: id, SubscriberID: subscriberID, Predicates: cp}
}

// Matches reports whether the publication satisfies every predicate.
func (s *Subscription) Matches(p *Publication) bool {
	for _, pr := range s.Predicates {
		v, ok := p.Attrs[pr.Attr]
		if !pr.Matches(v, ok) {
			return false
		}
	}
	return true
}

// EncodedSize approximates the subscription's wire size in bytes.
func (s *Subscription) EncodedSize() int {
	n := len(s.ID) + len(s.SubscriberID)
	for _, pr := range s.Predicates {
		n += pr.EncodedSize()
	}
	return n
}

// String renders the subscription PADRES-style.
func (s *Subscription) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "S(%s)", s.ID)
	for _, pr := range s.Predicates {
		b.WriteString(pr.String())
	}
	return b.String()
}

// Advertisement announces the space of publications a publisher will emit.
// In filter-based routing, advertisements flood the overlay and
// subscriptions follow their reverse paths.
type Advertisement struct {
	// ID is the globally unique advertisement ID embedded in every
	// publication of this publisher.
	ID string `json:"id"`
	// PublisherID names the owning client.
	PublisherID string `json:"pub"`
	// Predicates describes the publication space.
	Predicates []Predicate `json:"preds"`
}

// NewAdvertisement constructs an advertisement; the predicate slice is
// copied.
func NewAdvertisement(id, publisherID string, preds []Predicate) *Advertisement {
	cp := make([]Predicate, len(preds))
	copy(cp, preds)
	return &Advertisement{ID: id, PublisherID: publisherID, Predicates: cp}
}

// IntersectsSubscription conservatively decides whether a subscription can
// ever match a publication from this advertisement. Brokers use it to decide
// which neighbors a subscription must be forwarded to. For attributes the
// advertisement does not mention, the answer is conservative (true) because
// the publication may still carry them.
func (a *Advertisement) IntersectsSubscription(s *Subscription) bool {
	for _, sp := range s.Predicates {
		for _, ap := range a.Predicates {
			if ap.Attr != sp.Attr {
				continue
			}
			if !PredicatesIntersect(ap, sp) {
				return false
			}
		}
	}
	return true
}

// String renders the advertisement PADRES-style.
func (a *Advertisement) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A(%s)", a.ID)
	for _, pr := range a.Predicates {
		b.WriteString(pr.String())
	}
	return b.String()
}
