package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The taint engine answers "may this value carry nondeterminism?" for
// detflow and for the Taints bit of function summaries. Sources are the
// curated external facts (wall clock, global math/rand, crypto/rand,
// core-count queries), any call into the telemetry package that returns
// values, any call to a function whose summary taints, and the key/value
// variables of a *partial* map range (breaking out early makes the
// visited subset depend on iteration order; a completed range does not
// taint — detflow holds a complete range in a det package to its
// order-independent loop shapes instead).
//
// Propagation is a flow-insensitive per-function fixpoint over local
// assignments: taint only ever spreads, so it converges, and a value is
// reported tainted if any path could make it so. Calls pass taint
// through conservatively — a tainted receiver or argument taints the
// result — which is what catches helpers laundering a clock read into a
// det-package return without any per-parameter summary machinery.

// Taint describes one nondeterminism source reaching a value.
type Taint struct {
	// Desc names the source ("wall-clock read", "telemetry read via
	// telemetry.Counter.Value").
	Desc string
	// Pos is the source or propagation site the description refers to.
	Pos token.Pos
}

// LocalTaints computes the tainted objects (locals, parameters, named
// results, and any package variables the body assigns) of n's body under
// the current summaries. Valid for bodied nodes only.
func (g *Graph) LocalTaints(n *Node) map[types.Object]*Taint {
	local := make(map[types.Object]*Taint)
	info := n.Pkg.Info
	mark := func(obj types.Object, t *Taint) bool {
		if obj == nil || t == nil {
			return false
		}
		if _, ok := local[obj]; ok {
			return false
		}
		local[obj] = t
		return true
	}
	markLHS := func(lhs ast.Expr, t *Taint) bool {
		return mark(rootObj(info, lhs), t)
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(n.Body, func(m ast.Node) bool {
			switch st := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i, lhs := range st.Lhs {
						if t := g.ExprTaint(n, local, st.Rhs[i]); t != nil {
							if markLHS(lhs, t) {
								changed = true
							}
						}
					}
				} else if len(st.Rhs) == 1 {
					if t := g.ExprTaint(n, local, st.Rhs[0]); t != nil {
						for _, lhs := range st.Lhs {
							if markLHS(lhs, t) {
								changed = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) == len(st.Values) {
					for i, name := range st.Names {
						if t := g.ExprTaint(n, local, st.Values[i]); t != nil {
							if mark(info.ObjectOf(name), t) {
								changed = true
							}
						}
					}
				} else if len(st.Values) == 1 {
					if t := g.ExprTaint(n, local, st.Values[0]); t != nil {
						for _, name := range st.Names {
							if mark(info.ObjectOf(name), t) {
								changed = true
							}
						}
					}
				}
			case *ast.RangeStmt:
				var t *Taint
				if isPartialMapRange(info, st) {
					t = &Taint{Desc: "map-iteration order (partial range)", Pos: st.Pos()}
				} else if xt := g.ExprTaint(n, local, st.X); xt != nil {
					t = xt
				}
				if t != nil {
					for _, e := range []ast.Expr{st.Key, st.Value} {
						if e == nil {
							continue
						}
						if markLHS(e, t) {
							changed = true
						}
					}
				}
			case *ast.SendStmt:
				// A tainted value sent into a locally visible channel
				// taints what is later received from it.
				if t := g.ExprTaint(n, local, st.Value); t != nil {
					if markLHS(st.Chan, t) {
						changed = true
					}
				}
			}
			return true
		})
	}
	return local
}

// ExprTaint evaluates whether e may carry nondeterminism given the local
// taint map; returns the taint or nil.
func (g *Graph) ExprTaint(n *Node, local map[types.Object]*Taint, e ast.Expr) *Taint {
	info := n.Pkg.Info
	switch x := e.(type) {
	case *ast.Ident:
		if t, ok := local[info.ObjectOf(x)]; ok {
			return t
		}
	case *ast.ParenExpr:
		return g.ExprTaint(n, local, x.X)
	case *ast.StarExpr:
		return g.ExprTaint(n, local, x.X)
	case *ast.UnaryExpr:
		return g.ExprTaint(n, local, x.X)
	case *ast.BinaryExpr:
		if t := g.ExprTaint(n, local, x.X); t != nil {
			return t
		}
		return g.ExprTaint(n, local, x.Y)
	case *ast.IndexExpr:
		if t := g.ExprTaint(n, local, x.X); t != nil {
			return t
		}
		return g.ExprTaint(n, local, x.Index)
	case *ast.SliceExpr:
		return g.ExprTaint(n, local, x.X)
	case *ast.TypeAssertExpr:
		return g.ExprTaint(n, local, x.X)
	case *ast.SelectorExpr:
		// A field of a tainted value is tainted; a package-level var is
		// handled through its object like any ident.
		if t, ok := local[info.ObjectOf(x.Sel)]; ok {
			return t
		}
		return g.ExprTaint(n, local, x.X)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if t := g.ExprTaint(n, local, v); t != nil {
				return t
			}
		}
	case *ast.CallExpr:
		return g.callTaint(n, local, x)
	}
	return nil
}

// callTaint classifies a call's result: a tainting callee by summary, or
// conservative pass-through of a tainted receiver/argument.
func (g *Graph) callTaint(n *Node, local map[types.Object]*Taint, call *ast.CallExpr) *Taint {
	info := n.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: taint of the converted operand.
		for _, arg := range call.Args {
			if t := g.ExprTaint(n, local, arg); t != nil {
				return t
			}
		}
		return nil
	}
	for _, e := range g.CallEdges[call] {
		// Argument-position edges are functions handed to the callee,
		// not producers of this call's result.
		if e.ArgIndex != -1 {
			continue
		}
		if cs := e.Callee.Summary; cs != nil && cs.Taints {
			desc := cs.TaintDesc
			if !e.Callee.External() {
				desc = desc + " via " + e.Callee.Name
			}
			return &Taint{Desc: desc, Pos: call.Pos()}
		}
	}
	// Pass-through: tainted receiver or argument taints the result.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if t := g.ExprTaint(n, local, sel.X); t != nil {
			return t
		}
	}
	for _, arg := range call.Args {
		if t := g.ExprTaint(n, local, arg); t != nil {
			return t
		}
	}
	return nil
}

// taintedReturn reports the first tainted return value of n, or nil.
func (g *Graph) taintedReturn(n *Node) *Taint {
	if n.sig == nil || n.sig.Results().Len() == 0 {
		return nil
	}
	local := g.LocalTaints(n)
	var found *Taint
	ast.Inspect(n.Body, func(m ast.Node) bool {
		if found != nil {
			return false
		}
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if len(x.Results) == 0 {
				// Naked return: consult the named result objects.
				for i := 0; i < n.sig.Results().Len(); i++ {
					if t, ok := local[n.sig.Results().At(i)]; ok {
						found = t
						return false
					}
				}
				return true
			}
			for _, res := range x.Results {
				if t := g.ExprTaint(n, local, res); t != nil {
					found = t
					return false
				}
			}
		}
		return true
	})
	return found
}

// rootObj resolves an assignment target to the object that names its
// storage: the ident itself, or the base of a selector/index/star chain
// (writing a field of a local taints the whole local, conservatively).
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isPartialMapRange reports whether st ranges over a map and can exit
// before visiting every element (break or return in the body), making
// the visited subset — and so the key/value variables — depend on the
// runtime's randomized iteration order.
func isPartialMapRange(info *types.Info, st *ast.RangeStmt) bool {
	t := info.TypeOf(st.X)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return false
	}
	return rangeEscapes(st.Body, false)
}

// rangeEscapes walks the range body looking for an exit before
// completion: a return, or a break that targets the range (unlabeled at
// range level; any labeled break is conservatively assumed to). Nested
// function literals cannot exit the range and are skipped.
func rangeEscapes(n ast.Node, nested bool) bool {
	escapes := false
	ast.Inspect(n, func(m ast.Node) bool {
		if escapes || m == n {
			return !escapes
		}
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			if rangeEscapes(m, true) {
				escapes = true
			}
			return false
		case *ast.BranchStmt:
			if x.Tok == token.BREAK && (!nested || x.Label != nil) {
				escapes = true
			}
		case *ast.ReturnStmt:
			escapes = true
		}
		return !escapes
	})
	return escapes
}
