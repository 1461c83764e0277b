package nondet_test

import (
	"testing"

	"github.com/greenps/greenps/internal/analysis/analysistest"
	"github.com/greenps/greenps/internal/analysis/nondet"
)

func TestNondet(t *testing.T) {
	analysistest.Run(t, "testdata/src/nondet", "fixture/nondet", nondet.Analyzer)
}

// TestTelemetryClockRule checks the telemetry package's narrower rule
// set: wall-clock references are flagged, while rand and racy selects
// (banned in the deterministic core) pass.
func TestTelemetryClockRule(t *testing.T) {
	analysistest.Run(t, "testdata/src/telemetry", "fixture/telemetry", nondet.Analyzer)
}

// TestTelemetryImportBan checks that a deterministic package importing
// the telemetry package is flagged at the import site and at every call
// into it.
func TestTelemetryImportBan(t *testing.T) {
	analysistest.Run(t, "testdata/src/detimport", "fixture/detimport", nondet.Analyzer)
}
