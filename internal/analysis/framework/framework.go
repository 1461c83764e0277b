// Package framework is a self-contained miniature of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. The repo
// vendors no third-party modules (the build environment is offline), so
// greenvet carries this ~small reimplementation of the pieces it needs —
// the Analyzer/Pass shape is kept deliberately close to go/analysis so the
// suite can be ported to the real framework mechanically if x/tools ever
// becomes available.
//
// On top of the upstream shape the framework adds one repo-specific
// feature: suppression directives. A diagnostic site may be annotated with
//
//	//greenvet:<name> <justification>
//
// on the flagged line or the line directly above it. The justification is
// mandatory — a bare directive suppresses nothing and instead produces a
// diagnostic demanding one — so every suppression documents why the
// invariant provably holds at that site.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. Run is invoked once per loaded
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CI output.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run executes the check over a single package.
	Run func(*Pass) error
}

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// directive is a parsed //greenvet:<name> comment.
type directive struct {
	name string
	why  string
	pos  token.Position
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package syntax in file-name order (comments included).
	Files []*ast.File
	// Pkg and Info are the type-checker outputs for Files.
	Pkg  *types.Package
	Info *types.Info

	diags      *[]Diagnostic
	directives map[string]map[int]directive // file -> line -> directive

	// audit disables suppression (Suppressed returns false) while
	// recording which directives would have fired, so stale ones can be
	// reported. live is shared across the package's passes and keyed by
	// directive file:line.
	audit bool
	live  map[string]bool
}

// dirKey identifies one directive site for the audit's liveness set.
func dirKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suppressed reports whether a //greenvet:<name> directive covers pos (on
// the same line or the line immediately above). A directive with an empty
// justification still suppresses the original finding but reports a
// diagnostic demanding the justification, so it can never silence CI.
//
// Analyzers must consult Suppressed only once a finding is otherwise
// definite (directly before the Reportf it would silence): the audit
// mode equates "this directive matched a Suppressed call" with "this
// directive still suppresses a real finding", so a speculative early
// check would hide staleness.
//
// In audit mode Suppressed records the match and returns false, so the
// analyzer reports the raw finding and the audit learns which directives
// still have one to suppress.
func (p *Pass) Suppressed(pos token.Pos, name string) bool {
	position := p.Fset.Position(pos)
	byLine := p.directives[position.Filename]
	for _, line := range [2]int{position.Line, position.Line - 1} {
		d, ok := byLine[line]
		if !ok || d.name != name {
			continue
		}
		if p.audit {
			p.live[dirKey(position.Filename, line)] = true
			return false
		}
		if strings.TrimSpace(d.why) == "" {
			p.Reportf(pos, "//greenvet:%s suppression requires a justification", name)
		}
		return true
	}
	return false
}

// parseDirectives indexes every //greenvet: comment by file and line.
func parseDirectives(fset *token.FileSet, files []*ast.File) map[string]map[int]directive {
	out := make(map[string]map[int]directive)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, " ")
				if !strings.HasPrefix(text, "greenvet:") {
					continue
				}
				rest := strings.TrimPrefix(text, "greenvet:")
				name, why, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]directive)
					out[pos.Filename] = byLine
				}
				byLine[pos.Line] = directive{name: name, why: why, pos: pos}
			}
		}
	}
	return out
}

// Run executes every analyzer over every package and returns the combined
// findings sorted by position then analyzer name, so output order is
// deterministic regardless of package or analyzer order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return execute(pkgs, analyzers, false)
}

// Audit re-runs every analyzer with suppression disabled and reports the
// stale //greenvet: directives: directives that no analyzer would have
// consulted at a definite finding. The analyzers' raw findings are
// discarded — a suppressed finding is legitimate; a suppression with
// nothing left to suppress is the rot this mode exists to catch, since a
// stale directive silently licenses the next real violation at its site.
func Audit(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return execute(pkgs, analyzers, true)
}

// execute runs the suite over every package in turn and sorts the
// combined results. Every analyzer reads one package at a time, so no
// state crosses packages; directive liveness (audit mode) is per package.
func execute(pkgs []*Package, analyzers []*Analyzer, audit bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		d, err := executePackage(pkg, analyzers, audit)
		if err != nil {
			return nil, err
		}
		diags = append(diags, d...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// executePackage runs every analyzer over one package. In audit mode the
// analyzers' raw findings are discarded and the returned diagnostics are
// the package's stale directives instead.
func executePackage(pkg *Package, analyzers []*Analyzer, audit bool) ([]Diagnostic, error) {
	dirs := parseDirectives(pkg.Fset, pkg.Files)
	var live map[string]bool
	if audit {
		live = make(map[string]bool)
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			diags:      &diags,
			directives: dirs,
			audit:      audit,
			live:       live,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	if !audit {
		return diags, nil
	}
	var stale []Diagnostic
	for _, byLine := range dirs {
		for _, d := range byLine {
			if live[dirKey(d.pos.Filename, d.pos.Line)] {
				continue
			}
			stale = append(stale, Diagnostic{
				Pos:      d.pos,
				Analyzer: "audit",
				Message: fmt.Sprintf("stale //greenvet:%s directive: no analyzer reports a finding at this site anymore; remove it or re-justify against current code",
					d.name),
			})
		}
	}
	return stale, nil
}

// sortDiagnostics orders findings by position, analyzer name, then
// message — a total order, so output cannot depend on package or
// analyzer order even when two findings share a site.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
