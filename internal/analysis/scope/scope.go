// Package scope centralizes which packages each greenvet analyzer applies
// to. The deterministic core — the packages whose outputs must be
// bit-for-bit identical across runs, worker counts, and machines, because
// CROC compares the plans they produce — is enumerated here once, so the
// analyzers and the documentation cannot drift apart.
//
// Fixture packages (loaded from testdata by the analysistest helper) opt
// in via the "fixture/" import-path prefix, which real packages can never
// have.
package scope

import "strings"

// Module is the repo's module path.
const Module = "github.com/greenps/greenps"

// ParworkPath is the fork/join helper package; lockcheck's blocking table
// counts parwork.Run as a join.
const ParworkPath = Module + "/internal/parwork"

// AllocationPath is the Phase-2 subscription allocation package, the
// first of the deterministic packages.
const AllocationPath = Module + "/internal/allocation"

// TelemetryPath is the live-path instrumentation package. It sits on
// the far side of the determinism boundary: deterministic packages may
// never import it (telemetry must not feed plan computation), and the
// package itself may never read the wall clock directly (clocks are
// injected, so telemetry runs on a virtual clock in tests).
const TelemetryPath = Module + "/internal/telemetry"

// TransportPath and ClientPath are the wire layers whose Send/Recv
// surfaces lockcheck treats as blocking operations.
const (
	TransportPath = Module + "/internal/transport"
	ClientPath    = Module + "/internal/client"
)

// DeterministicPackages are the plan-producing packages: given one broker
// snapshot they must produce one canonical answer — Phase-2 allocation,
// the Phase-3 overlay (core.Plan.Tree) and GRAPE's publisher placement
// (core.Plan.Publishers). detflow enforces it mechanically.
var DeterministicPackages = []string{
	AllocationPath,
	Module + "/internal/poset",
	Module + "/internal/bitvector",
	Module + "/internal/core",
	Module + "/internal/overlaybuild",
	Module + "/internal/grape",
}

// IsFixture reports whether the package is an analysistest fixture.
func IsFixture(path string) bool { return strings.HasPrefix(path, "fixture/") }

// IsTelemetry reports whether the package is the telemetry subsystem
// (or the fixture standing in for it).
func IsTelemetry(path string) bool {
	return path == TelemetryPath || path == "fixture/telemetry"
}

// IsDeterministic reports whether the package belongs to the deterministic
// core (or is a fixture standing in for one). The telemetry fixture is
// excluded: it stands in for the telemetry package, which carries its
// own (narrower) rule set.
func IsDeterministic(path string) bool {
	for _, p := range DeterministicPackages {
		if path == p {
			return true
		}
	}
	return IsFixture(path) && !IsTelemetry(path)
}
