// Package nondet forbids sources of hidden nondeterminism in the
// plan-producing packages: every function callgraph.NondetSourceOf lists
// — wall-clock reads (time.Now/Since/Until), the global math/rand
// functions (unseeded, process-global state), core-count queries
// (runtime.NumCPU/GOMAXPROCS — results must depend only on the explicit
// Parallelism option, never on the machine), crypto/rand, os.Getpid and
// os.Hostname — and select statements with multiple communication cases
// (the runtime picks a ready case uniformly at random).
//
// Explicitly seeded sources stay allowed: rand.New and rand.NewSource
// construct reproducible generators, which is exactly how the FBF and
// PAIRWISE options plumb their Seed. Test files are exempt by
// construction (the loader analyzes GoFiles only). Sites that are provably
// harmless — log output that never influences the plan — may carry a
// //greenvet:nondet-ok <justification> directive.
//
// Three telemetry rules guard the determinism boundary around
// internal/telemetry (see scope.TelemetryPath):
//
//  1. Deterministic packages must not import the telemetry package at
//     all. Instrumentation lives on the live path; the moment a plan
//     computation can see a counter it can branch on one.
//  2. Every call into it from a deterministic package — instrument
//     mutators and reads alike — is reported too, so a violation points
//     at the code to move rather than at an import line.
//  3. The telemetry package itself must not read the wall clock
//     (time.Now/Since/Until): clocks are injected by callers, so the
//     whole subsystem runs on a virtual clock under test and the
//     equivalence suite can hold plans byte-identical with telemetry
//     enabled. The other nondet rules (global rand, core counts, racy
//     selects) do not apply there — telemetry is concurrent by design
//     and not plan-producing.
package nondet

import (
	"go/ast"
	"go/types"
	"strconv"

	"github.com/greenps/greenps/internal/analysis/callgraph"
	"github.com/greenps/greenps/internal/analysis/framework"
	"github.com/greenps/greenps/internal/analysis/scope"
)

// Analyzer is the nondet check.
var Analyzer = &framework.Analyzer{
	Name: "nondet",
	Doc:  "forbids hidden nondeterminism sources (clock, global rand, core/process/host queries), racy selects, and telemetry in plan-producing packages",
	Run:  run,
}

func run(pass *framework.Pass) error {
	path := pass.Pkg.Path()
	det := scope.IsDeterministic(path)
	tele := scope.IsTelemetry(path)
	if !det && !tele {
		return nil
	}
	if det {
		checkTelemetryImports(pass)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if det {
					checkRef(pass, x)
				} else {
					checkClockRef(pass, x)
				}
			case *ast.SelectStmt:
				if det {
					checkSelect(pass, x)
				}
			case *ast.CallExpr:
				if det {
					checkTelemetryCall(pass, x)
				}
			}
			return true
		})
	}
	return nil
}

// checkTelemetryImports flags any deterministic-core import of the
// telemetry package: instrumentation must stay on the live side of the
// boundary, observing plans but never participating in them.
func checkTelemetryImports(pass *framework.Pass) {
	for _, f := range pass.Files {
		for _, im := range f.Imports {
			p, err := strconv.Unquote(im.Path.Value)
			if err != nil || p != scope.TelemetryPath {
				continue
			}
			if pass.Suppressed(im.Pos(), "nondet-ok") {
				continue
			}
			pass.Reportf(im.Pos(), "deterministic package imports %s: telemetry observes the live path and must never feed plan computation", p)
		}
	}
}

// checkTelemetryCall flags any call that resolves into the telemetry
// package — instrument mutators and reads alike — when made from a
// deterministic-core package.
func checkTelemetryCall(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Uses resolves the selected name to a method and to a
	// package-qualified function alike.
	fn, _ := pass.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != scope.TelemetryPath {
		return
	}
	if pass.Suppressed(sel.Pos(), "nondet-ok") {
		return
	}
	pass.Reportf(sel.Pos(), "call to telemetry %s inside the deterministic core; telemetry observes the live path and must never touch plan computation", callgraph.MethodDesc(fn))
}

// checkClockRef flags wall-clock references in the telemetry package,
// whose rule is narrower than the deterministic core's: only injected
// clocks are allowed, everything else (atomics, selects) is fine.
func checkClockRef(pass *framework.Pass, sel *ast.SelectorExpr) {
	fn := framework.FuncOf(pass.Info, sel)
	if src, ok := callgraph.NondetSourceOf(fn); !ok || !src.Clock {
		return
	}
	if pass.Suppressed(sel.Pos(), "nondet-ok") {
		return
	}
	pass.Reportf(sel.Pos(), "reference to %s in the telemetry package: clocks are injected by callers so telemetry stays testable on a virtual clock", framework.FuncKey(fn))
}

// checkRef flags any reference (call or function value) to a
// nondeterminism source. Catching bare references matters: assigning
// time.Now to a clock field smuggles the wall clock in just as surely as
// calling it.
func checkRef(pass *framework.Pass, sel *ast.SelectorExpr) {
	fn := framework.FuncOf(pass.Info, sel)
	src, bad := callgraph.NondetSourceOf(fn)
	if !bad {
		return
	}
	if pass.Suppressed(sel.Pos(), "nondet-ok") {
		return
	}
	pass.Reportf(sel.Pos(), "reference to %s in deterministic package: %s", framework.FuncKey(fn), src.Ban)
}

// checkSelect flags selects that can choose among multiple ready channels.
func checkSelect(pass *framework.Pass, sel *ast.SelectStmt) {
	comms := 0
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
			comms++
		}
	}
	if comms < 2 {
		return
	}
	if pass.Suppressed(sel.Pos(), "nondet-ok") {
		return
	}
	pass.Reportf(sel.Pos(), "select with %d communication cases in deterministic package: the runtime picks a ready case at random", comms)
}
