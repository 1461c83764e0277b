// Package shadow reimplements the x/tools shadow vet pass's core
// heuristic (the module tree is offline, so the upstream pass cannot be
// fetched): report an inner declaration that reuses the name of an outer
// variable of the same type when the outer variable is still read after
// the inner scope ends. That combination is where shadowing causes real
// bugs — the code after the block observes a value the block appeared to
// update.
//
// Unlike detflow's bans this check applies repo-wide: shadowing is a
// correctness hazard everywhere, not only in the deterministic core.
// Intentional shadows carry //greenvet:shadow-ok <justification>.
package shadow

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/greenps/greenps/internal/analysis/framework"
)

// Analyzer is the shadow check.
var Analyzer = &framework.Analyzer{
	Name: "shadow",
	Doc:  "reports inner declarations shadowing an outer variable that is used after the inner scope ends",
	Run:  run,
}

func run(pass *framework.Pass) error {
	// usesAfter[obj] is the last position at which obj is read.
	lastUse := make(map[types.Object]token.Pos)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := pass.Info.Uses[id]; obj != nil {
				if id.Pos() > lastUse[obj] {
					lastUse[obj] = id.Pos()
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if st.Tok == token.DEFINE {
					for _, lhs := range st.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							checkDef(pass, id, lastUse)
						}
					}
				}
			case *ast.GenDecl:
				if st.Tok == token.VAR {
					for _, spec := range st.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, id := range vs.Names {
								checkDef(pass, id, lastUse)
							}
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkDef reports id if it shadows a same-typed variable from an outer
// function scope that is still read after id's scope closes.
func checkDef(pass *framework.Pass, id *ast.Ident, lastUse map[types.Object]token.Pos) {
	if id.Name == "_" {
		return
	}
	inner, ok := pass.Info.Defs[id].(*types.Var)
	if !ok || inner.Parent() == nil {
		return
	}
	innerScope := inner.Parent()
	pkgScope := pass.Pkg.Scope()
	if innerScope == pkgScope {
		return // package-level declarations cannot shadow
	}
	for outer := innerScope.Parent(); outer != nil && outer != pkgScope && outer != types.Universe; outer = outer.Parent() {
		obj := outer.Lookup(id.Name)
		if obj == nil {
			continue
		}
		shadowed, ok := obj.(*types.Var)
		if !ok || shadowed.Pos() >= id.Pos() {
			return
		}
		if !types.Identical(shadowed.Type(), inner.Type()) {
			return
		}
		if lastUse[shadowed] <= innerScope.End() {
			return // outer variable dead after the block: harmless
		}
		if pass.Suppressed(id.Pos(), "shadow-ok") {
			return
		}
		pass.Reportf(id.Pos(), "declaration of %q shadows declaration at %s; the outer variable is read after this scope ends",
			id.Name, pass.Fset.Position(shadowed.Pos()))
		return
	}
}
