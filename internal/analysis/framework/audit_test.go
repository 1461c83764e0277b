package framework_test

import (
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/analysis/detflow"
	"github.com/greenps/greenps/internal/analysis/framework"
)

// TestAuditReportsOnlyStaleDirectives is the golden test for -audit: the
// fixture holds one suppression the detflow analyzer still fires under
// (live) and one left behind after its loop body became commutative
// (stale). Audit must flag exactly the stale one, as the synthetic
// "audit" analyzer, and must not emit the suppressed finding itself.
func TestAuditReportsOnlyStaleDirectives(t *testing.T) {
	pkg, err := framework.LoadFixture("testdata/src/audit", "fixture/audit")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := framework.Audit([]*framework.Package{pkg}, []*framework.Analyzer{detflow.Analyzer})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("audit reported %d diagnostics, want exactly 1 (the stale directive): %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "audit" {
		t.Errorf("diagnostic attributed to %q, want \"audit\"", d.Analyzer)
	}
	if !strings.HasSuffix(d.Pos.Filename, "a.go") || d.Pos.Line != 21 {
		t.Errorf("stale directive located at %s:%d, want a.go:21", d.Pos.Filename, d.Pos.Line)
	}
	if !strings.Contains(d.Message, "stale //greenvet:detflow-ok directive") {
		t.Errorf("message %q does not name the stale directive", d.Message)
	}
}

// TestRunHonorsSuppressions pins the complementary non-audit behavior on
// the same fixture: both loops are order-dependent-or-annotated, so a
// plain Run must report nothing (live suppression honored, commutative
// loop clean).
func TestRunHonorsSuppressions(t *testing.T) {
	pkg, err := framework.LoadFixture("testdata/src/audit", "fixture/audit")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := framework.Run([]*framework.Package{pkg}, []*framework.Analyzer{detflow.Analyzer})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("run reported %d diagnostics on the audit fixture, want 0: %v", len(diags), diags)
	}
}
