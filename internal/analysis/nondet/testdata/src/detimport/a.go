// Fixture for nondet's determinism-boundary rule, loaded as
// "fixture/detimport" (a stand-in for a deterministic-core package): an
// import of the telemetry package is flagged no matter how it is used —
// once a plan computation can see a counter, it can branch on one — and
// so is every call into it, so a finding also points at the code to move.
package detimport

import (
	"sort"

	"github.com/greenps/greenps/internal/telemetry" // want "deterministic package imports github.com/greenps/greenps/internal/telemetry"
)

// registry is never consulted by planning code, but the import alone
// crosses the boundary.
var registry = telemetry.New(nil) // want "call to telemetry New inside the deterministic core"

// Plan is a stand-in deterministic computation.
func Plan(xs []int) []int {
	registry.Counter("plans_total", "").Inc() // want "call to telemetry Registry.Counter" "call to telemetry Counter.Inc"
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
