package detflow_test

import (
	"testing"

	"github.com/greenps/greenps/internal/analysis/analysistest"
	"github.com/greenps/greenps/internal/analysis/detflow"
)

// TestDetflow checks the bans at the determinism boundary: a source on its
// way into a Plan or a return is flagged where it is referenced, and a
// helper that only returns its result is not.
func TestDetflow(t *testing.T) {
	analysistest.Run(t, "testdata/src/detflow", "fixture/detflow", detflow.Analyzer)
}

// TestNondetSources checks that every NondetSourceOf reference
// and every racy select in a deterministic package is flagged, while
// seeded generators and justified sites pass.
func TestNondetSources(t *testing.T) {
	analysistest.Run(t, "testdata/src/sources", "fixture/sources", detflow.Analyzer)
}

// TestMapOrder checks the map-order prover: the four accepted loop shapes
// pass, every other body is flagged.
func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata/src/maporder", "fixture/maporder", detflow.Analyzer)
}

// TestTelemetryClockRule checks the telemetry package's narrower rule
// set: wall-clock references are flagged, while rand and racy selects
// (banned in the deterministic core) pass.
func TestTelemetryClockRule(t *testing.T) {
	analysistest.Run(t, "testdata/src/telemetry", "fixture/telemetry", detflow.Analyzer)
}

// TestTelemetryImportBan checks that a deterministic package importing
// the telemetry package is flagged at the import site and at every call
// into it.
func TestTelemetryImportBan(t *testing.T) {
	analysistest.Run(t, "testdata/src/detimport", "fixture/detimport", detflow.Analyzer)
}
