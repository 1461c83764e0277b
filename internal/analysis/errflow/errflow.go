// Package errflow flags error values that die unobserved on some path
// out of a function, in every package. It matters most in the live
// reconfiguration stack (broker, croc, deploy, transport): a dropped
// error there turns a failed apply step into one that merely *looks*
// applied, which is the worst failure mode a reconfiguration protocol can
// have.
//
// The check is a backward must-analysis over the function's CFG. For
// every local error-typed variable assigned from a call, the value must
// be used — compared, returned, passed to another call, stored, sent —
// on *every* path from the assignment to function exit, before being
// overwritten. A path that panics is exempt (the error did not vanish;
// the goroutine did). Variables whose address is taken or that are
// captured by a closure are skipped: their uses cannot be tracked
// intraprocedurally.
package errflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/greenps/greenps/internal/analysis/cfg"
	"github.com/greenps/greenps/internal/analysis/framework"
)

// Analyzer is the errflow check.
var Analyzer = &framework.Analyzer{
	Name: "errflow",
	Doc:  "flags error values dead on some path out of a function",
	Run:  run,
}

var errorType = types.Universe.Lookup("error").Type()

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				checkFunc(pass, body)
			}
			return true
		})
	}
	return nil
}

// def is one candidate assignment: an error-typed local defined from a
// call's result.
type def struct {
	obj *types.Var
	pos token.Pos
}

// fact maps each tracked error variable to "guaranteed used before
// overwrite on every path from here to exit". Missing means false.
type fact map[*types.Var]bool

func checkFunc(pass *framework.Pass, body *ast.BlockStmt) {
	skip := skippedObjs(pass, body)
	defs := candidateDefs(pass, body, skip)
	if len(defs) == 0 {
		return
	}
	domain := make([]*types.Var, 0, len(defs))
	seen := make(map[*types.Var]bool)
	for _, ds := range defs {
		for _, d := range ds {
			if !seen[d.obj] {
				seen[d.obj] = true
				domain = append(domain, d.obj)
			}
		}
	}
	bottom := make(fact, len(domain))
	for _, v := range domain {
		bottom[v] = false
	}

	g := cfg.New(body)
	analysis := cfg.Analysis[fact]{
		Boundary: bottom,
		Join: func(a, b fact) fact {
			out := make(fact, len(domain))
			for _, v := range domain {
				out[v] = a[v] && b[v]
			}
			return out
		},
		Transfer: func(b *cfg.Block, in fact) fact {
			out := cloneFact(in, domain)
			for i := len(b.Nodes) - 1; i >= 0; i-- {
				applyReverse(pass, b.Nodes[i], out)
			}
			return out
		},
		Equal: func(a, b fact) bool {
			for _, v := range domain {
				if a[v] != b[v] {
					return false
				}
			}
			return true
		},
	}
	in := cfg.Backward(g, analysis)

	// Reporting sweep: recompute each reachable block's out-fact from its
	// successors' stable entry facts, then walk the block backward; the
	// fact in hand when a candidate def is reached is the fact *after* the
	// assignment in execution order.
	for _, b := range g.Blocks {
		if _, ok := in[b]; !ok {
			continue // unreachable
		}
		cur := blockOut(b, in, bottom, domain)
		for i := len(b.Nodes) - 1; i >= 0; i-- {
			n := b.Nodes[i]
			for _, d := range defs[n] {
				if !cur[d.obj] {
					report(pass, d)
				}
			}
			applyReverse(pass, n, cur)
		}
	}
}

func report(pass *framework.Pass, d def) {
	// Consulted only once the finding is definite, so -audit can equate
	// a matched directive with a live suppression.
	if pass.Suppressed(d.pos, "errdrop-ok") {
		return
	}
	pass.Reportf(d.pos, "error assigned to %s is dropped on some path to return: neither checked, returned, nor recorded before going out of scope; handle it on every path or justify with //greenvet:errdrop-ok",
		d.obj.Name())
}

// blockOut computes a block's exit fact: the AND-join of its successors'
// entry facts, or the boundary for a dead-end block.
func blockOut(b *cfg.Block, in map[*cfg.Block]fact, bottom fact, domain []*types.Var) fact {
	out := make(fact, len(domain))
	first := true
	for _, s := range b.Succs {
		sf, ok := in[s]
		if !ok {
			continue
		}
		if first {
			for _, v := range domain {
				out[v] = sf[v]
			}
			first = false
			continue
		}
		for _, v := range domain {
			out[v] = out[v] && sf[v]
		}
	}
	if first {
		for _, v := range domain {
			out[v] = bottom[v]
		}
	}
	return out
}

func cloneFact(f fact, domain []*types.Var) fact {
	out := make(fact, len(domain))
	for _, v := range domain {
		out[v] = f[v]
	}
	return out
}

// applyReverse applies one CFG node's effect to the backward fact:
// assignment targets kill (the old value dies unread on this path), any
// other mention is a use, and a panicking node exempts everything
// downstream of it.
func applyReverse(pass *framework.Pass, n ast.Node, f fact) {
	if as, ok := n.(*ast.AssignStmt); ok && (as.Tok == token.ASSIGN || as.Tok == token.DEFINE) {
		// Reverse order of execution: the write happens after the RHS
		// reads, so process the kill first, then the RHS uses. A variable
		// reused by := appears in Uses (not Defs), so the same lookup
		// covers both assignment forms; a genuinely new := object is in
		// Defs and needs no kill.
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				if v, ok := pass.Info.Uses[id].(*types.Var); ok {
					if _, tracked := f[v]; tracked {
						f[v] = false
					}
				}
			}
		}
		for _, r := range as.Rhs {
			markUses(pass, r, f)
		}
		return
	}
	if isTerminalCall(pass, n) {
		for v := range f {
			f[v] = true
		}
		return
	}
	markUses(pass, n, f)
}

// markUses marks every tracked variable mentioned in the node as used.
// FuncLit bodies are pruned (captured variables are skipped wholesale)
// and := defines are not uses of the new object.
func markUses(pass *framework.Pass, n ast.Node, f fact) {
	cfg.InspectShallow(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v, ok := pass.Info.Uses[id].(*types.Var); ok {
				if _, tracked := f[v]; tracked {
					f[v] = true
				}
			}
		}
		return true
	})
}

// isTerminalCall reports whether the node contains a call that never
// returns: the panic builtin or os.Exit. Paths that die there did not
// drop their errors silently.
func isTerminalCall(pass *framework.Pass, n ast.Node) bool {
	terminal := false
	cfg.InspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				terminal = true
				return false
			}
		}
		if fn := framework.FuncOf(pass.Info, call.Fun); fn != nil && framework.FuncKey(fn) == "os.Exit" {
			terminal = true
			return false
		}
		return true
	})
	return terminal
}

// skippedObjs collects the variables errflow cannot track: address-taken
// anywhere in the body, or mentioned inside a function literal (closure
// capture moves their uses out of this CFG).
func skippedObjs(pass *framework.Pass, body *ast.BlockStmt) map[*types.Var]bool {
	skip := make(map[*types.Var]bool)
	var addObj = func(id *ast.Ident) {
		if v, ok := pass.Info.Uses[id].(*types.Var); ok {
			skip[v] = true
		} else if v, ok := pass.Info.Defs[id].(*types.Var); ok {
			skip[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if id, ok := x.X.(*ast.Ident); ok {
					addObj(id)
				}
			}
		case *ast.FuncLit:
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					addObj(id)
				}
				return true
			})
			return false
		}
		return true
	})
	return skip
}

// candidateDefs finds the assignments errflow audits: an error-typed
// variable local to this function, assigned from a call's result, and
// not in the skip set. The result is keyed by the assignment node so the
// reporting sweep can recognize def sites while walking blocks.
func candidateDefs(pass *framework.Pass, body *ast.BlockStmt, skip map[*types.Var]bool) map[ast.Node][]def {
	defs := make(map[ast.Node][]def)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested functions run their own checkFunc
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
			return true
		}
		if len(as.Rhs) != 1 {
			return true
		}
		if _, ok := as.Rhs[0].(*ast.CallExpr); !ok {
			return true
		}
		for _, l := range as.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj, ok := objOf(pass, id).(*types.Var)
			if !ok || skip[obj] {
				continue
			}
			if !types.Identical(obj.Type(), errorType) {
				continue
			}
			// Locals only: parameters, named results, and outer-scope
			// variables sit outside the body's position range.
			if obj.Pos() < body.Pos() || obj.Pos() > body.End() {
				continue
			}
			defs[n] = append(defs[n], def{obj: obj, pos: id.Pos()})
		}
		return true
	})
	return defs
}

func objOf(pass *framework.Pass, id *ast.Ident) types.Object {
	if o := pass.Info.Defs[id]; o != nil {
		return o
	}
	return pass.Info.Uses[id]
}
