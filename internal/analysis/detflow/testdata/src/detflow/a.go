// Fixture for detflow at the determinism boundary: sources read on their
// way into a Plan or out of a function. The fixture package loads as
// "fixture/detflow", which the scope package treats as deterministic, so
// the syntactic bans fire where a source is referenced; a value that only
// carries a source's result elsewhere is not followed.
package detflow

import (
	"math/rand"
	"sort"
	"time"

	"github.com/greenps/greenps/internal/telemetry" // want "deterministic package imports"
)

// Plan stands in for core.Plan; storing into it is not itself a finding,
// so each flagged store below is flagged at its source.
type Plan struct {
	Version int
	Stamp   int64
	Hosts   []string
}

// stamp reads the wall clock directly; detflow reports the reference
// here.
func stamp() int64 {
	return time.Now().UnixNano() // want "reference to time.Now"
}

// laundered never touches the clock syntactically: detflow reports the
// source in stamp, not the laundered return. It follows no value across a
// call.
func laundered() int64 {
	v := stamp()
	return v
}

// fill stores a clock read into a Plan field.
func fill(p *Plan) {
	p.Stamp = time.Now().UnixNano() // want "reference to time.Now"
}

var cached *Plan

// rebuild seeds a Plan composite literal from the global rand source.
func rebuild() {
	cached = &Plan{Version: 1, Stamp: rand.Int63()} // want "reference to math/rand.Int63"
}

// fromTelemetry lets an observed counter influence the plan.
func fromTelemetry(p *Plan, c *telemetry.Counter) {
	p.Version = int(c.Value()) // want "call to telemetry Counter.Value"
}

// firstKey leaks map-iteration order: the range is partial (it returns
// out of the loop), so which key comes first is scheduler-dependent.
func firstKey(m map[string]int) string {
	for k := range m { // want "range over map m has an order-dependent body"
		return k
	}
	return ""
}

// sortedKeys ranges completely and sorts: the result is a pure function
// of the map's contents. Clean.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// clock is an injected time source; plans built from it are
// deterministic because the caller controls the implementation (the
// virtual clock in tests). Calls through it are not flagged.
type clock interface {
	Now() int64
}

func stampWith(c clock) int64 {
	return c.Now()
}

// seeded uses an explicitly seeded generator, which the det packages are
// allowed to do. Clean.
func seeded() int64 {
	r := rand.New(rand.NewSource(42))
	return r.Int63()
}

// excused shows the audit trail: a justified suppression silences the
// finding and -audit tracks its liveness.
func excused() int64 {
	//greenvet:detflow-ok fixture: feeds a log line, not the plan
	return time.Now().UnixNano()
}
