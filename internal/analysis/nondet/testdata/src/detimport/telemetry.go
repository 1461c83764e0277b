// Part of the "fixture/detimport" nondet fixture: the package stands in
// for the deterministic core, so driving a live-path telemetry instrument
// from it — write or read — is flagged at the call site as well as at the
// import.
package detimport

import "github.com/greenps/greenps/internal/telemetry" // want "deterministic package imports github.com/greenps/greenps/internal/telemetry"

var reg = telemetry.New(nil) // want "call to telemetry New inside the deterministic core"

type run struct{ packAttempts int }

// instrumented tallies a plan-side counter (fine) but also drives
// telemetry instruments, which is rejected.
func (r *run) instrumented(c *telemetry.Counter, h *telemetry.Histogram) {
	r.packAttempts++
	c.Inc()          // want "call to telemetry Counter.Inc inside the deterministic core"
	h.Observe(0.001) // want "call to telemetry Histogram.Observe inside the deterministic core"
}

// feedback reads a counter into a plan decision — the exact loop the
// boundary exists to prevent; reads are flagged the same as writes.
func (r *run) feedback(c *telemetry.Counter) bool {
	return c.Value() > 100 // want "call to telemetry Counter.Value inside the deterministic core"
}

// justified call sites carry nondet-ok like every other nondet finding.
func (r *run) justified(c *telemetry.Counter) {
	//greenvet:nondet-ok fixture: shows the call-site rule honours the directive
	c.Inc()
}
