package message

import (
	"fmt"
	"math"

	"github.com/greenps/greenps/internal/bitvector"
)

// MatchingDelayFn is the linear matching-delay model a broker reports in its
// BIA message (Section III-A): the time to match one publication against a
// routing table holding n subscriptions is PerSub*n + Base seconds. CROC
// inverts it to obtain the broker's maximum sustainable input rate.
type MatchingDelayFn struct {
	// PerSub is the marginal matching cost per stored subscription, in
	// seconds.
	PerSub float64 `json:"per_sub"`
	// Base is the fixed per-publication overhead, in seconds.
	Base float64 `json:"base"`
}

// Delay returns the modeled matching delay in seconds for a table of n
// subscriptions.
func (m MatchingDelayFn) Delay(n int) float64 {
	if n < 0 {
		n = 0
	}
	return float64(m.PerSub*float64(n)) + m.Base
}

// MaxRate returns the maximum sustainable input publication rate (msgs/s)
// for a table of n subscriptions: the inverse of the matching delay. A
// zero delay model means matching is not the bottleneck: the rate is
// unbounded.
func (m MatchingDelayFn) MaxRate(n int) float64 {
	d := m.Delay(n)
	if d <= 0 {
		return math.Inf(1)
	}
	return 1 / d
}

// SubscriptionInfo pairs a subscription with the bit-vector profile its
// broker's CBC accumulated for it. The profile travels as its snapshot
// (bitvector.Profile marshals itself); a nil profile is left out.
type SubscriptionInfo struct {
	Sub     *Subscription      `json:"sub"`
	Profile *bitvector.Profile `json:"profile,omitempty"`
}

// PublisherInfo pairs a publisher's advertisement with its measured stats.
type PublisherInfo struct {
	Adv   *Advertisement            `json:"adv"`
	Stats *bitvector.PublisherStats `json:"stats"`
}

// BrokerInfo is the payload a broker contributes to a Broker Information
// Answer: everything CROC needs to run Phases 2 and 3 (Section III-A).
type BrokerInfo struct {
	// ID is the broker's identifier.
	ID string `json:"id"`
	// URL is the address clients and neighbors use to connect.
	URL string `json:"url"`
	// Delay is the broker's matching-delay function.
	Delay MatchingDelayFn `json:"delay"`
	// OutputBandwidth is the broker's total output bandwidth in bytes/s.
	OutputBandwidth float64 `json:"out_bw"`
	// Subscriptions are the broker's local (client-attached) subscriptions
	// with profiles.
	Subscriptions []SubscriptionInfo `json:"subs"`
	// Publishers are the broker's local publishers with stats.
	Publishers []PublisherInfo `json:"pubs"`
}

// BIR is a Broker Information Request, flooded by CROC through the overlay.
type BIR struct {
	// RequestID correlates the flood with its answers.
	RequestID string `json:"req"`
}

// BIA is a Broker Information Answer. Brokers aggregate the answers of the
// neighbors they forwarded the BIR to with their own before replying, so
// CROC receives a single BIA containing every broker (Section III-A).
type BIA struct {
	RequestID string       `json:"req"`
	Infos     []BrokerInfo `json:"infos"`
}

// Kind discriminates the message kinds carried between brokers and clients.
type Kind int

// Message kinds.
const (
	KindPublication Kind = iota + 1
	KindSubscription
	KindUnsubscription
	KindAdvertisement
	KindUnadvertisement
	KindBIR
	KindBIA
)

// String returns a readable kind name.
func (k Kind) String() string {
	switch k {
	case KindPublication:
		return "publication"
	case KindSubscription:
		return "subscription"
	case KindUnsubscription:
		return "unsubscription"
	case KindAdvertisement:
		return "advertisement"
	case KindUnadvertisement:
		return "unadvertisement"
	case KindBIR:
		return "bir"
	case KindBIA:
		return "bia"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Envelope is the tagged union carried by links between brokers and between
// brokers and clients. Exactly one payload field corresponding to Kind is
// populated; Validate, which Encode and Decode apply, enforces it.
type Envelope struct {
	Kind    Kind           `json:"kind"`
	Pub     *Publication   `json:"pub,omitempty"`
	Sub     *Subscription  `json:"sub,omitempty"`
	UnsubID string         `json:"unsub_id,omitempty"`
	Adv     *Advertisement `json:"adv,omitempty"`
	UnadvID string         `json:"unadv_id,omitempty"`
	BIR     *BIR           `json:"bir,omitempty"`
	BIA     *BIA           `json:"bia,omitempty"`
}

// Validate checks that the envelope carries exactly one payload field, the
// one its kind names.
func (e *Envelope) Validate() error {
	if err := e.validateKind(); err != nil {
		return err
	}
	if n := e.payloads(); n != 1 {
		return fmt.Errorf("message: %v envelope carries %d payload fields, want 1", e.Kind, n)
	}
	return nil
}

// payloads counts the envelope's populated payload fields.
func (e *Envelope) payloads() int {
	n := 0
	for _, set := range [...]bool{e.Pub != nil, e.Sub != nil, e.UnsubID != "", e.Adv != nil,
		e.UnadvID != "", e.BIR != nil, e.BIA != nil} {
		if set {
			n++
		}
	}
	return n
}

// validateKind checks that the payload field the kind names is populated.
func (e *Envelope) validateKind() error {
	switch e.Kind {
	case KindPublication:
		if e.Pub == nil {
			return fmt.Errorf("message: publication envelope missing payload")
		}
	case KindSubscription:
		if e.Sub == nil {
			return fmt.Errorf("message: subscription envelope missing payload")
		}
	case KindUnsubscription:
		if e.UnsubID == "" {
			return fmt.Errorf("message: unsubscription envelope missing id")
		}
	case KindAdvertisement:
		if e.Adv == nil {
			return fmt.Errorf("message: advertisement envelope missing payload")
		}
	case KindUnadvertisement:
		if e.UnadvID == "" {
			return fmt.Errorf("message: unadvertisement envelope missing id")
		}
	case KindBIR:
		if e.BIR == nil {
			return fmt.Errorf("message: BIR envelope missing payload")
		}
	case KindBIA:
		if e.BIA == nil {
			return fmt.Errorf("message: BIA envelope missing payload")
		}
	default:
		return fmt.Errorf("message: invalid envelope kind %d", int(e.Kind))
	}
	return nil
}

// EnvelopeOverhead is what EncodedSize charges a data message's envelope
// on top of its content.
const EnvelopeOverhead = 8

// EncodedSize approximates the envelope's wire size for bandwidth
// accounting. Control messages are charged a small fixed size; data
// messages are charged their content size plus EnvelopeOverhead.
func (e *Envelope) EncodedSize() int {
	switch e.Kind {
	case KindPublication:
		return e.Pub.EncodedSize() + EnvelopeOverhead
	case KindSubscription:
		return e.Sub.EncodedSize() + EnvelopeOverhead
	case KindAdvertisement:
		n := len(e.Adv.ID) + len(e.Adv.PublisherID)
		for _, p := range e.Adv.Predicates {
			n += p.EncodedSize()
		}
		return n + EnvelopeOverhead
	default:
		return 64
	}
}
