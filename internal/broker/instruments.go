package broker

import "github.com/greenps/greenps/internal/telemetry"

// Instruments is the broker's optional telemetry bundle: message and
// byte rates, the matched-vs-forwarded publication split, BIR protocol
// activity, and the live runtime's queue depth and limiter wait time.
// Any field may be nil (nil instruments no-op); a Core without a bundle
// uses the shared no-op set, so the simulator path pays one nil check
// per counter site and never allocates.
type Instruments struct {
	// MsgsIn/MsgsOut and BytesOut mirror Counters as live metrics, and
	// BytesIn counts the inbound bytes (every envelope through Handle,
	// all kinds).
	MsgsIn   *telemetry.Counter
	MsgsOut  *telemetry.Counter
	BytesIn  *telemetry.Counter
	BytesOut *telemetry.Counter
	// PubsMatched/PubsUnmatched split handled publications by whether
	// any subscription matched here; PubsForwarded counts copies sent to
	// neighbor brokers, PubsDelivered copies sent to local clients.
	PubsMatched   *telemetry.Counter
	PubsUnmatched *telemetry.Counter
	PubsForwarded *telemetry.Counter
	PubsDelivered *telemetry.Counter
	// BIRRounds counts completed BIR aggregations (one per information
	// request this broker answered).
	BIRRounds *telemetry.Counter
	// QueueDepth tracks the live node's inbox backlog.
	QueueDepth *telemetry.Gauge
	// LimiterWaitSeconds observes the bandwidth limiter's imposed wait
	// per outbound message (zero when the bucket covers the message).
	LimiterWaitSeconds *telemetry.Histogram
}

// NewInstruments registers the broker metric set on a registry. A nil
// registry yields an all-nil bundle, which disables instrumentation at
// zero cost.
func NewInstruments(r *telemetry.Registry) *Instruments {
	return &Instruments{
		MsgsIn:             r.Counter("greenps_broker_msgs_in_total", "Messages handled by the broker core, all kinds."),
		MsgsOut:            r.Counter("greenps_broker_msgs_out_total", "Messages emitted by the broker core, all kinds."),
		BytesIn:            r.Counter("greenps_broker_bytes_in_total", "Encoded bytes of handled messages."),
		BytesOut:           r.Counter("greenps_broker_bytes_out_total", "Encoded bytes of emitted messages."),
		PubsMatched:        r.Counter("greenps_broker_pubs_matched_total", "Publications matching at least one subscription here."),
		PubsUnmatched:      r.Counter("greenps_broker_pubs_unmatched_total", "Publications matching no subscription here (pure transit)."),
		PubsForwarded:      r.Counter("greenps_broker_pubs_forwarded_total", "Publication copies forwarded to neighbor brokers."),
		PubsDelivered:      r.Counter("greenps_broker_pubs_delivered_total", "Publication copies delivered to local clients."),
		BIRRounds:          r.Counter("greenps_broker_bir_rounds_total", "Completed BIR aggregation rounds."),
		QueueDepth:         r.Gauge("greenps_broker_queue_depth", "Event-loop inbox backlog."),
		LimiterWaitSeconds: r.Histogram("greenps_broker_limiter_wait_seconds", "Bandwidth-limiter wait per outbound message.", telemetry.DurationBuckets()),
	}
}

// noopInstruments is the shared disabled bundle.
var noopInstruments = &Instruments{}
