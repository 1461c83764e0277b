// Package waitcheck audits goroutine launches in the packages that use
// the parwork fork/join discipline (parwork itself, its importers, and
// the deterministic core). The allocation hot paths rely on strict
// fork/join: every spawned goroutine is joined before its results are
// read, and worker panics surface on the coordinating goroutine. A raw
// `go` statement without a join in the same function is either a leak, a
// race waiting to happen, or a silent panic sink — an unrecovered panic
// in a detached worker kills the whole process with no caller able to
// intervene.
//
// The mechanical rule: a function that launches a goroutine must also
// contain a join — a call to a Wait method (sync.WaitGroup) — or the
// launch must carry //greenvet:goroutine-ok <justification>.
package waitcheck

import (
	"go/ast"

	"github.com/greenps/greenps/internal/analysis/framework"
	"github.com/greenps/greenps/internal/analysis/scope"
)

// Analyzer is the waitcheck check.
var Analyzer = &framework.Analyzer{
	Name: "waitcheck",
	Doc:  "flags goroutines launched without a join in parwork-using packages",
	Run:  run,
}

func applies(pass *framework.Pass) bool {
	path := pass.Pkg.Path()
	return path == scope.ParworkPath ||
		pass.Imports[scope.ParworkPath] ||
		scope.IsDeterministic(path)
}

func run(pass *framework.Pass) error {
	if !applies(pass) {
		return nil
	}
	for _, f := range pass.Files {
		framework.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := framework.EnclosingFunc(stack)
			if body != nil && hasJoin(body) {
				return true
			}
			// Consulted only once the finding is definite, so -audit can
			// equate a matched directive with a live suppression.
			if pass.Suppressed(gs.Pos(), "goroutine-ok") {
				return true
			}
			pass.Reportf(gs.Pos(), "goroutine launched without a join in the same function; use parwork.Run or join with Wait before returning")
			return true
		})
	}
	return nil
}

// hasJoin reports whether the function body contains a call to a method
// named Wait (sync.WaitGroup.Wait and errgroup-style APIs share the
// name).
func hasJoin(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
			found = true
		}
		return true
	})
	return found
}
