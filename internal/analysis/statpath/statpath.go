// Package statpath guards the E7/E8 stat counters. ClosenessComputations,
// CoverComputations, and PackAttempts are tallied only on the canonical
// serial path — never inside worker goroutines or callbacks — which is
// what makes the E8 table identical at every Parallelism setting.
// statpath enforces the two mechanical consequences:
//
//  1. Only the allocation package mutates the counters. Everyone else
//     (croc, experiments, benchmarks) reads them.
//  2. Inside allocation, a counter mutation must sit in a plain function
//     body: never inside a function literal (the seed phase's parwork
//     callback, the binary search's mk closure, sort comparators) and
//     never inside a go statement. Closures are exactly the code that may run concurrently,
//     where a tally would race, or as often as their caller pleases, where
//     it would count work the canonical path never decided on.
//
// Sites that are provably serial may carry //greenvet:statpath-ok with a
// justification.
//
// The analyzer also guards the live-path telemetry boundary from the
// stat side: any call into internal/telemetry — mutation or read — from
// a deterministic-core package is flagged. CRAMStats counters are part
// of the plan (they are compared in the E8 tables and must be
// parallelism-invariant); telemetry instruments are runtime
// observations that must never be driven by, or fed back into, plan
// computation. nondet bans the import outright; statpath reports the
// precise call sites, so a violation points at the code to move rather
// than at an import line.
package statpath

import (
	"go/ast"
	"go/types"

	"github.com/greenps/greenps/internal/analysis/framework"
	"github.com/greenps/greenps/internal/analysis/scope"
)

// Analyzer is the statpath check.
var Analyzer = &framework.Analyzer{
	Name: "statpath",
	Doc:  "restricts CRAMStats counter mutations to the allocation package's canonical serial path",
	Run:  run,
}

// counters are the guarded CRAMStats fields.
var counters = map[string]bool{
	"ClosenessComputations": true,
	"CoverComputations":     true,
	"PackAttempts":          true,
	"BoundPruned":           true,
}

func run(pass *framework.Pass) error {
	det := scope.IsDeterministic(pass.Pkg.Path())
	for _, f := range pass.Files {
		framework.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkWrite(pass, lhs, stack)
				}
			case *ast.IncDecStmt:
				checkWrite(pass, st.X, stack)
			case *ast.CallExpr:
				if det {
					checkTelemetryCall(pass, st)
				}
			}
			return true
		})
	}
	return nil
}

// checkTelemetryCall flags any call that resolves into the telemetry
// package — instrument mutators and reads alike — when made from a
// deterministic-core package.
func checkTelemetryCall(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	var fn *types.Func
	if selection, ok := pass.Info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
		fn, _ = selection.Obj().(*types.Func)
	} else {
		fn = framework.FuncOf(pass.Info, sel)
	}
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != scope.TelemetryPath {
		return
	}
	if pass.Suppressed(sel.Pos(), "statpath-ok") {
		return
	}
	pass.Reportf(sel.Pos(), "call to telemetry %s inside the deterministic core; telemetry observes the live path and must never touch plan computation", callName(fn))
}

// callName renders a telemetry callee compactly: "Counter.Inc" for
// methods, "New" for package-level functions.
func callName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	if named, isNamed := recv.(*types.Named); isNamed {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// checkWrite flags a write whose target is a guarded CRAMStats counter
// reached outside the allocation package or inside a closure/goroutine.
func checkWrite(pass *framework.Pass, target ast.Expr, stack []ast.Node) {
	sel, ok := target.(*ast.SelectorExpr)
	if !ok || !counters[sel.Sel.Name] {
		return
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	named, ok := selection.Recv().(*types.Named)
	if !ok {
		if ptr, isPtr := selection.Recv().(*types.Pointer); isPtr {
			named, ok = ptr.Elem().(*types.Named)
		}
	}
	if !ok || named == nil || named.Obj().Name() != "CRAMStats" {
		return
	}
	if !scope.IsStatOwner(pass.Pkg.Path()) {
		if !pass.Suppressed(sel.Pos(), "statpath-ok") {
			pass.Reportf(sel.Pos(), "stat counter %s mutated outside the allocation package; counters are written only on CRAM's canonical path", sel.Sel.Name)
		}
		return
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.GoStmt:
			if !pass.Suppressed(sel.Pos(), "statpath-ok") {
				pass.Reportf(sel.Pos(), "stat counter %s mutated inside a function literal/goroutine; counters must be tallied on the canonical serial path only", sel.Sel.Name)
			}
			return
		case *ast.FuncDecl:
			return // reached the plain enclosing function: canonical path
		}
	}
}
