// Package callgraph builds a whole-program call graph over the loaded
// packages and computes bottom-up per-function summaries (may-block,
// acquired locks) with fixpoint iteration over strongly connected
// components, so recursion and mutual recursion converge. Its per-body
// lockset analysis is the tree's only one: besides the summaries it
// records the locks held at every call and blocking operation for
// lockcheck, its one client, to classify.
//
// Resolution policy (see DESIGN.md §13 for the full soundness argument):
//
//   - Static calls (package functions, concrete methods, method
//     expressions, immediately invoked or go/defer'd function literals)
//     resolve to exactly one callee.
//   - Interface method calls expand CHA-style to every in-program method
//     with a matching name whose receiver type implements the interface,
//     plus a bodiless node for the interface method itself so curated
//     external facts (net.Conn.Read blocks, for instance) still apply.
//   - Function values resolve through a flow-insensitive, program-wide
//     scan of assignments: a call through a variable targets every
//     function ever assigned to it. Method values and closures assigned
//     to variables become call edges this way. An unresolvable
//     assignment adds no target, and a call through a struct field,
//     parameter, slice element, or call result is widened: the site
//     contributes no edges, so the caller's facts are lower bounds there.
//   - A function literal or statically resolvable function passed as a
//     call argument gets a dynamic edge from the caller, modeling the
//     common synchronous higher-order shapes (sort.Slice comparators,
//     parwork bodies) at the cost of over-approximating registrations.
//
// Functions outside the loaded packages become bodiless nodes whose
// summaries come from curated fact tables (external.go); everything not
// in a table is assumed harmless, which keeps the widening one-sided:
// missing facts can hide a finding, never invent one.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/types"

	"github.com/greenps/greenps/internal/analysis/framework"
)

// Graph is the program-wide call graph plus, after Summarize, the
// per-function summaries and composed lock-order edges.
type Graph struct {
	// Nodes lists every function in deterministic construction order:
	// bodied functions package-by-package in source order, then external
	// (bodiless) nodes in first-reference order.
	Nodes []*Node
	// CallEdges maps each resolved call site to its outgoing edges.
	CallEdges map[*ast.CallExpr][]*Edge

	byObj map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node

	orderEdges []OrderEdge // filled by Summarize
}

// Node is one function: a declared function or method, a function
// literal, or a bodiless stand-in for a function outside the program.
type Node struct {
	// Index is the node's position in Graph.Nodes (a stable identity).
	Index int
	// Name is the diagnostic-friendly name: "pkg.Func", "pkg.Type.Method",
	// or "enclosing$n" for the n-th literal inside enclosing.
	Name string
	// Obj is the type-checker object; nil for function literals.
	Obj *types.Func
	// Lit is the literal's syntax; nil for declared and external nodes.
	Lit *ast.FuncLit
	// Body is the function body; nil exactly for external nodes.
	Body *ast.BlockStmt
	// Pkg is the analyzed package owning the body; nil for external nodes.
	Pkg *framework.Package
	// Edges are the outgoing call edges in source order.
	Edges []*Edge
	// Summary holds the node's interprocedural facts after Summarize.
	Summary *Summary
	// HeldSites lists, in source order, every blocking candidate in the
	// body reached with locks that may be held (filled by Summarize). It
	// is the one record of held locks: lockcheck classifies its sites and
	// the order composition reads its calls.
	HeldSites []HeldSite

	sig   *types.Signature
	facts *localFacts // cached per-body local scan (summary.go)
}

// External reports whether the node stands in for a function outside the
// loaded packages (no body; summary from curated tables).
func (n *Node) External() bool { return n.Body == nil }

// Edge is one call: caller invokes callee at Site.
type Edge struct {
	Caller *Node
	Callee *Node
	Site   *ast.CallExpr
	// Go and Defer mark `go`/`defer` call statements (and edges for
	// function-literal arguments of such calls).
	Go    bool
	Defer bool
}

// Build constructs the call graph over pkgs. All packages must share one
// FileSet (framework.Load guarantees this; fixtures load one package).
func Build(pkgs []*framework.Package) *Graph {
	g := &Graph{
		CallEdges: make(map[*ast.CallExpr][]*Edge),
		byObj:     make(map[*types.Func]*Node),
		byLit:     make(map[*ast.FuncLit]*Node),
	}
	b := &builder{g: g, methods: make(map[string][]*Node), assigns: make(map[*types.Var][]*Node)}
	for _, pkg := range pkgs {
		b.collectNodes(pkg)
	}
	for _, pkg := range pkgs {
		b.collectAssigns(pkg)
	}
	// Edge resolution after all nodes and assignments exist, so forward
	// references and cross-package function values resolve.
	for _, n := range append([]*Node(nil), g.Nodes...) {
		if n.Body != nil {
			b.scanCalls(n)
		}
	}
	return g
}

// Of returns the (summarized) call graph for the pass's whole program,
// building it on first demand and sharing it across analyzers and
// packages through the Program fact cache.
func Of(pass *framework.Pass) *Graph {
	return pass.Program.Fact("callgraph", func() any {
		g := Build(pass.Program.Packages)
		g.Summarize()
		return g
	}).(*Graph)
}

// builder carries construction state.
type builder struct {
	g *Graph
	// methods indexes every in-program method node by name, for CHA
	// expansion of interface calls.
	methods map[string][]*Node
	// assigns records, per function-typed variable, every resolvable
	// function ever assigned to it program-wide, in source order — the
	// flow-insensitive assignment history calls through it resolve to.
	assigns map[*types.Var][]*Node
}

// newNode appends a node and registers its identity maps.
func (b *builder) newNode(n *Node) *Node {
	n.Index = len(b.g.Nodes)
	b.g.Nodes = append(b.g.Nodes, n)
	if n.Obj != nil {
		b.g.byObj[n.Obj] = n
	}
	if n.Lit != nil {
		b.g.byLit[n.Lit] = n
	}
	return n
}

// collectNodes creates a node for every declared function and function
// literal in the package, in source order, naming literals after their
// lexically enclosing function.
func (b *builder) collectNodes(pkg *framework.Package) {
	for _, f := range pkg.Files {
		// litCount numbers literals per enclosing function name.
		litCount := make(map[string]int)
		framework.WithStack(f, func(node ast.Node, stack []ast.Node) bool {
			switch fn := node.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return true
				}
				obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
				if obj == nil {
					return true
				}
				b.register(&Node{
					Name: funcName(pkg.Types.Name(), obj),
					Obj:  obj,
					Body: fn.Body,
					Pkg:  pkg,
					sig:  obj.Type().(*types.Signature),
				})
			case *ast.FuncLit:
				parent := b.enclosingName(pkg, stack)
				litCount[parent]++
				sig, _ := pkg.Info.TypeOf(fn.Type).(*types.Signature)
				b.register(&Node{
					Name: fmt.Sprintf("%s$%d", parent, litCount[parent]),
					Lit:  fn,
					Body: fn.Body,
					Pkg:  pkg,
					sig:  sig,
				})
			}
			return true
		})
	}
}

// register adds a bodied node and indexes methods for CHA.
func (b *builder) register(n *Node) {
	b.newNode(n)
	if n.Obj != nil && n.sig != nil && n.sig.Recv() != nil {
		b.methods[n.Obj.Name()] = append(b.methods[n.Obj.Name()], n)
	}
}

// enclosingName finds the nearest enclosing function node's name on the
// ancestor stack (nodes are created in pre-order, so it already exists).
func (b *builder) enclosingName(pkg *framework.Package, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			if n := b.g.byLit[fn]; n != nil {
				return n.Name
			}
		case *ast.FuncDecl:
			if obj, _ := pkg.Info.Defs[fn.Name].(*types.Func); obj != nil {
				if n := b.g.byObj[obj]; n != nil {
					return n.Name
				}
			}
		}
	}
	return pkg.Types.Name()
}

// externalNode returns (creating on first reference) the bodiless node
// for a function outside the loaded packages — or an interface method,
// which has no body anywhere. Its summary comes from the curated tables.
func (b *builder) externalNode(fn *types.Func) *Node {
	if n := b.g.byObj[fn]; n != nil {
		return n
	}
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name()
	}
	n := b.newNode(&Node{
		Name: funcName(pkgName, fn),
		Obj:  fn,
		sig:  fn.Type().(*types.Signature),
	})
	n.Summary = externalSummary(fn)
	return n
}

// funcName renders "pkg.Func" or "pkg.Type.Method".
func funcName(pkgName string, fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkgName + "." + named.Obj().Name() + "." + fn.Name()
		}
		if iface, ok := t.(*types.Interface); ok {
			_ = iface
			return pkgName + "." + fn.Name()
		}
	}
	if pkgName == "" {
		return fn.Name()
	}
	return pkgName + "." + fn.Name()
}

// collectAssigns scans the package for assignments to function-typed
// variables, feeding the program-wide function-value resolution.
func (b *builder) collectAssigns(pkg *framework.Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			// Tuple assignments from a call and range variables carry
			// opaque values: they add no targets.
			switch st := node.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i, lhs := range st.Lhs {
						b.recordAssign(pkg, lhs, st.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) == len(st.Values) {
					for i, name := range st.Names {
						b.recordAssign(pkg, name, st.Values[i])
					}
				}
			}
			return true
		})
	}
}

// funcVarOf returns the function-typed variable an assignment target
// denotes, or nil (non-ident targets are opaque storage the resolver
// already widens at the call site).
func funcVarOf(info *types.Info, lhs ast.Expr) *types.Var {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Type() == nil {
		return nil
	}
	if _, ok := v.Type().Underlying().(*types.Signature); !ok {
		return nil
	}
	return v
}

func (b *builder) recordAssign(pkg *framework.Package, lhs, rhs ast.Expr) {
	v := funcVarOf(pkg.Info, lhs)
	if v == nil {
		return
	}
	// nil and anything unresolvable add no target.
	if t := b.resolveFuncExpr(pkg, rhs); t != nil {
		b.assigns[v] = append(b.assigns[v], t)
	}
}

// resolveFuncExpr resolves a non-call function-valued expression — a
// literal, a function reference, or a method value — to its node, or nil
// if opaque.
func (b *builder) resolveFuncExpr(pkg *framework.Package, e ast.Expr) *Node {
	switch x := unparen(e).(type) {
	case *ast.FuncLit:
		return b.g.byLit[x]
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
			return b.nodeFor(fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				if fn, ok := sel.Obj().(*types.Func); ok {
					return b.nodeFor(fn)
				}
			}
			return nil // field value: opaque
		}
		if fn, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
			return b.nodeFor(fn)
		}
	}
	return nil
}

// nodeFor returns the in-program node for fn, or its external stand-in.
func (b *builder) nodeFor(fn *types.Func) *Node {
	if n := b.g.byObj[fn]; n != nil {
		return n
	}
	return b.externalNode(fn)
}

// scanCalls resolves every call site in n's body into edges. Function
// literals are skipped — their bodies are their own nodes — but a
// literal in call-argument or call-function position contributes an edge
// from this caller.
func (b *builder) scanCalls(n *Node) {
	goCalls := make(map[*ast.CallExpr]bool)
	deferCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(n.Body, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			goCalls[x.Call] = true
		case *ast.DeferStmt:
			deferCalls[x.Call] = true
		case *ast.CallExpr:
			b.call(n, x, goCalls[x], deferCalls[x])
			// Descend into arguments (nested calls, literals handled by
			// the FuncLit case above).
		}
		return true
	})
}

// addEdge appends one resolved edge and indexes it by site.
func (b *builder) addEdge(e *Edge) {
	e.Caller.Edges = append(e.Caller.Edges, e)
	b.g.CallEdges[e.Site] = append(b.g.CallEdges[e.Site], e)
}

// call resolves one call site. A site that resolves to nothing — an
// index expression, a call result, a struct field (injected dependencies
// like core.Config.Clock), a parameter, a type-parameter method — is
// widened: it contributes no edges.
func (b *builder) call(caller *Node, call *ast.CallExpr, isGo, isDefer bool) {
	info := caller.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	emit := func(callee *Node) {
		b.addEdge(&Edge{Caller: caller, Callee: callee, Site: call, Go: isGo, Defer: isDefer})
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if lit := b.g.byLit[fun]; lit != nil {
			emit(lit)
		}
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			emit(b.nodeFor(obj))
		case *types.Var:
			b.throughVar(emit, obj)
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[fun]
		if !ok {
			// Package-qualified function or variable.
			switch obj := info.Uses[fun.Sel].(type) {
			case *types.Func:
				emit(b.nodeFor(obj))
			case *types.Var:
				b.throughVar(emit, obj)
			}
			break
		}
		fn, _ := sel.Obj().(*types.Func)
		if fn == nil {
			break // call through a struct field
		}
		if sel.Kind() == types.MethodExpr {
			emit(b.nodeFor(fn))
			break
		}
		recv := sel.Recv()
		if iface := interfaceUnder(recv); iface != nil {
			// CHA: every in-program implementation, plus the
			// interface method itself for curated external facts.
			for _, impl := range b.implementations(fn.Name(), iface) {
				emit(impl)
			}
			emit(b.nodeFor(fn))
		} else if _, isTypeParam := recv.(*types.TypeParam); !isTypeParam {
			emit(b.nodeFor(fn))
		}
	}
	// Function-valued arguments: assume the callee may invoke them
	// synchronously (dynamic over-approximation for higher-order calls).
	for _, arg := range call.Args {
		if t := b.resolveFuncExpr(caller.Pkg, arg); t != nil {
			b.addEdge(&Edge{Caller: caller, Callee: t, Site: call, Go: isGo, Defer: isDefer})
		}
	}
}

// throughVar resolves a call through a function-typed variable to every
// function the program-wide assignment history ever stored in it (none
// for a parameter or an untracked variable).
func (b *builder) throughVar(emit func(callee *Node), v *types.Var) {
	seen := make(map[*Node]bool)
	for _, t := range b.assigns[v] {
		if !seen[t] {
			seen[t] = true
			emit(t)
		}
	}
}

// implementations returns the in-program methods named name whose
// receiver type implements iface, in node order.
func (b *builder) implementations(name string, iface *types.Interface) []*Node {
	var out []*Node
	for _, m := range b.methods[name] {
		recv := m.sig.Recv().Type()
		named := recv
		if p, ok := named.(*types.Pointer); ok {
			named = p.Elem()
		}
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(named), iface) {
			out = append(out, m)
		}
	}
	return out
}

// interfaceUnder returns the interface underlying t, unwrapping one
// pointer level, or nil.
func interfaceUnder(t types.Type) *types.Interface {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
