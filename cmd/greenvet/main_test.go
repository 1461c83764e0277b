package main

import (
	"bytes"
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/analysis"
	"github.com/greenps/greenps/internal/analysis/framework"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./cmd/greenvet -run RenderJSONGolden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestRenderJSONGolden pins the -json document byte-for-byte: the doc
// comment promises a stable schema and field order, and CI diffs these
// documents across runs, so any drift must be a deliberate golden
// update, not a marshaling accident.
func TestRenderJSONGolden(t *testing.T) {
	diags := []framework.Diagnostic{
		{
			Pos:      token.Position{Filename: "internal/demo/a.go", Line: 12, Column: 3},
			Analyzer: "detflow",
			Message:  `range over map m has an order-dependent body; iterate sorted keys, make the body commutative, or justify with //greenvet:detflow-ok`,
		},
		{
			Pos:      token.Position{Filename: "internal/demo/b.go", Line: 40, Column: 17},
			Analyzer: "lockcheck-ip",
			Message:  `Conn.wmu may be held (acquired at line 31) across Buffers.WriteTo (blocking I/O); a blocked holder stalls every contender — release the lock first or justify with //greenvet:lock-ok`,
		},
	}
	cases := []struct {
		name   string
		diags  []framework.Diagnostic
		audit  bool
		golden string
	}{
		{"findings", diags, false, "findings.json"},
		{"audit", diags[:1], true, "audit.json"},
		{"empty", nil, false, "empty.json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := renderJSON(c.diags, c.audit)
			path := filepath.Join("testdata", c.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatalf("writing golden file: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden file: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("renderJSON output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestReadmeAnalyzerCount fails when the README's Linting section
// disagrees with the compiled suite: every analyzer must have a table
// row, no row may name a dropped analyzer, and the prose count ("three
// custom analyzers") must match len(Suite()). This is the doc-drift
// gate CI runs alongside the suite itself.
func TestReadmeAnalyzerCount(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	suite := analysis.Suite()

	rowRe := regexp.MustCompile("(?m)^\\| `([a-z-]+)` \\| (?:AST|CFG|call graph|(?:AST|CFG) \\+ call graph) \\|")
	rows := make(map[string]bool)
	for _, m := range rowRe.FindAllStringSubmatch(string(data), -1) {
		rows[m[1]] = true
	}
	if len(rows) != len(suite) {
		t.Errorf("README Linting table has %d analyzer rows, suite has %d analyzers", len(rows), len(suite))
	}
	for _, a := range suite {
		if !rows[a.Name] {
			t.Errorf("analyzer %q has no row in the README Linting table", a.Name)
		}
		delete(rows, a.Name)
	}
	for name := range rows {
		t.Errorf("README Linting table row %q names no analyzer in the suite", name)
	}

	words := map[int]string{
		1: "one", 2: "two", 3: "three", 4: "four", 5: "five", 6: "six", 7: "seven", 8: "eight",
		9: "nine", 10: "ten", 11: "eleven", 12: "twelve", 13: "thirteen", 14: "fourteen",
		15: "fifteen", 16: "sixteen",
	}
	word, ok := words[len(suite)]
	if !ok {
		t.Fatalf("no number word for a %d-analyzer suite; extend the table", len(suite))
	}
	if !bytes.Contains(data, []byte(word+" custom analyzers")) {
		t.Errorf("README prose does not say %q analyzers; update the Linting intro", word)
	}
}

// TestCensusAnalyzerRows fails when an analyzer in the suite has no row
// in EXPERIMENTS.md's "Surviving mechanisms" table: every repo-added
// mechanism, each analyzer included, earns a census row or goes.
func TestCensusAnalyzerRows(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatalf("reading EXPERIMENTS.md: %v", err)
	}
	_, rest, ok := strings.Cut(string(data), "**Surviving mechanisms**")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "Surviving mechanisms" table`)
	}
	surviving, _, _ := strings.Cut(rest, "**Deleted mechanisms**")
	rows := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z-]+)` ").FindAllStringSubmatch(surviving, -1) {
		rows[m[1]] = true
	}
	for _, a := range analysis.Suite() {
		if !rows[a.Name] {
			t.Errorf("analyzer %q has no row in EXPERIMENTS.md's Surviving mechanisms table", a.Name)
		}
	}
}
