// Command greenvet is the multichecker driver for the repo's determinism
// and concurrency lint suite (see DESIGN.md §8 and §13). It loads the
// packages matching the given go-list patterns, runs every analyzer,
// prints any findings in file:line:col form, and exits non-zero when
// there are any — so CI fails on the first reintroduced invariant
// violation.
//
// The -audit mode inverts the suppression machinery: it re-runs the
// suite with //greenvet: directives ignored and reports the stale ones —
// directives that no longer have a finding to suppress. A stale directive
// silently licenses the next real violation at its site, so -audit
// failing is a CI error just like a live finding.
//
// -json renders the diagnostics as a JSON document whose schema is
// stable by construction — it is rendered by hand (renderJSON), not by
// struct marshaling, so the field order is fixed by this code and
// pinned by a golden-file test:
//
//	{
//	  "mode": "findings",            // or "audit" under -audit
//	  "count": 2,                    // len(diagnostics)
//	  "diagnostics": [
//	    {"analyzer": "...", "file": "...", "line": 1, "col": 1, "message": "..."},
//	    ...
//	  ]
//	}
//
// Diagnostics are sorted on the framework's total order (file, line,
// col, analyzer, message) before rendering, so two runs over the same
// tree produce byte-identical documents and runs diff cleanly; -json-file additionally writes the same document
// to a file, which CI uploads as an artifact even when the run fails.
//
// Usage:
//
//	go run ./cmd/greenvet ./...
//	go run ./cmd/greenvet -only maporder,nondet ./internal/allocation
//	go run ./cmd/greenvet -audit ./...
//	go run ./cmd/greenvet -json -json-file greenvet.json ./...
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/greenps/greenps/internal/analysis"
	"github.com/greenps/greenps/internal/analysis/framework"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	audit := flag.Bool("audit", false, "report stale //greenvet: suppression directives instead of findings")
	jsonOut := flag.Bool("json", false, "print diagnostics as a JSON array instead of file:line:col lines")
	jsonFile := flag.String("json-file", "", "also write the JSON diagnostics document to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: greenvet [-only a,b] [-audit] [-json] [-json-file f] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the greenvet determinism & concurrency analyzers over the\ngiven go-list package patterns (default ./...).\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*framework.Analyzer
		for _, a := range suite {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(os.Stderr, "greenvet: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		suite = filtered
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := framework.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "greenvet: %v\n", err)
		os.Exit(2)
	}
	noun := "finding"
	if *audit {
		noun = "stale suppression"
	}
	var diags []framework.Diagnostic
	if *audit {
		diags, err = framework.Audit(pkgs, suite)
	} else {
		diags, err = framework.Run(pkgs, suite)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "greenvet: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut || *jsonFile != "" {
		doc := renderJSON(diags, *audit)
		if *jsonOut {
			os.Stdout.Write(doc)
		}
		if *jsonFile != "" {
			if err := os.WriteFile(*jsonFile, doc, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "greenvet: writing %s: %v\n", *jsonFile, err)
				os.Exit(2)
			}
		}
	}
	if !*jsonOut {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "greenvet: %d %s(s) across %d package(s)\n", len(diags), noun, len(pkgs))
		os.Exit(1)
	}
}

// renderJSON marshals the diagnostics by hand so the field order is
// fixed by this code, not by struct-tag iteration details: a top-level
// object carrying the mode and count, then one entry per diagnostic with
// analyzer, file, line, col, message. Diagnostics arrive already sorted
// on the framework's total order, so two runs over the same tree produce
// byte-identical documents.
func renderJSON(diags []framework.Diagnostic, audit bool) []byte {
	mode := "findings"
	if audit {
		mode = "audit"
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"mode\": %q,\n  \"count\": %d,\n  \"diagnostics\": [", mode, len(diags))
	for i, d := range diags {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n    {\"analyzer\": %q, \"file\": %q, \"line\": %d, \"col\": %d, \"message\": %q}",
			d.Analyzer, d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
	}
	if len(diags) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("]\n}\n")
	return b.Bytes()
}
