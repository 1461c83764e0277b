// Package lockcheck reports two classes of sync.Mutex/RWMutex hazard:
//
//  1. A lock held across a blocking operation — a channel send/receive,
//     a default-less select, a range over a channel, a Wait-style join,
//     a sleep, parwork.Run, or a call into the wire layers (net, bufio,
//     io, transport.Conn, client.Client). A goroutine that blocks while
//     holding a mutex stalls every contender for as long as the
//     operation takes; if the operation can only complete once a
//     contender runs (the broker event-loop feeding its own inbox, say),
//     the stall is a deadlock.
//
//  2. Inconsistent lock-acquisition order: two locks acquired nested in
//     both the A-then-B and B-then-A orders anywhere in the package. Each
//     order is individually fine; together they are the classic
//     two-thread deadlock, and no test run is guaranteed to interleave
//     into it.
//
// The check reads one function body at a time (every FuncDecl and
// FuncLit), with a forward may-analysis in which a deferred unlock keeps
// its lock held to the function's exit, so a report reads "may be held".
// It does not follow calls: a lock held across a call to an in-repo
// helper that blocks further down is not reported, unless the call is
// itself one the curated tables (blocking.go) name. One report is issued
// per (lock, function): a //greenvet:lock-ok <justification> at the first
// reported site covers that lock for the rest of the function.
package lockcheck

import (
	"go/ast"
	"go/token"

	"github.com/greenps/greenps/internal/analysis/framework"
)

// Analyzer is the lockcheck check. Its directive is "lock-ok".
var Analyzer = &framework.Analyzer{
	Name: "lockcheck",
	Doc:  "flags mutexes held across blocking operations and lock-acquisition-order inversions",
	Run:  run,
}

// run walks every function body in the package, classifies its held sites
// in source order — a channel operation by its recorded description, a
// call with DirectBlockingCall — and reports each held lock at the first
// blocking site of its function; then it pairs up the package's nested
// acquisitions into inversions.
func run(pass *framework.Pass) error {
	var edges []orderEdge
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			sites, nested := lockPre(pass, body)
			edges = append(edges, nested...)
			reported := make(map[string]bool)
			for _, site := range sites {
				desc, ok := site.Op, site.Op != ""
				if call, isCall := site.Node.(*ast.CallExpr); isCall {
					desc, ok = DirectBlockingCall(pass, call)
				}
				if ok {
					reportBlocked(pass, site.Node.Pos(), desc, site.Held, reported)
				}
			}
			return true
		})
	}
	reportInversions(pass, edges)
	return nil
}

// reportBlocked emits one diagnostic per held lock at a blocking site,
// the first time that lock is diagnosed in the function.
func reportBlocked(pass *framework.Pass, pos token.Pos, desc string, held []HeldLock, reported map[string]bool) {
	for _, h := range held {
		if reported[h.Root] {
			continue
		}
		reported[h.Root] = true
		// Consulted only once the finding is definite, so -audit can
		// equate a matched directive with a live suppression.
		if pass.Suppressed(pos, "lock-ok") {
			continue
		}
		pass.Reportf(pos, "%s may be held (acquired at line %d) across %s; a blocked holder stalls every contender — release the lock first or justify with //greenvet:lock-ok",
			h.Root, pass.Fset.Position(h.Acquired).Line, desc)
	}
}

// reportInversions reports lock pairs acquired nested in both orders in
// the package. Each direction's first acquisition site is its anchor, and
// each unordered pair is reported once, from the lexically smaller outer
// lock's site; a directive at either anchor suppresses it.
func reportInversions(pass *framework.Pass, edges []orderEdge) {
	type pair struct{ outer, inner string }
	first := make(map[pair]token.Pos)
	for _, e := range edges {
		p := pair{e.outer, e.inner}
		if pos, ok := first[p]; !ok || e.pos < pos {
			first[p] = e.pos
		}
	}
	// The framework sorts diagnostics, so map order cannot show.
	for p, pos := range first {
		revPos, ok := first[pair{p.inner, p.outer}]
		if !ok || p.outer >= p.inner {
			continue
		}
		// Consulted only once the finding is definite, so -audit can
		// equate a matched directive with a live suppression.
		if pass.Suppressed(pos, "lock-ok") || pass.Suppressed(revPos, "lock-ok") {
			continue
		}
		pass.Reportf(pos, "%s acquired while holding %s, but line %d acquires them in the opposite order; pick one order program-wide or justify with //greenvet:lock-ok",
			p.inner, p.outer, pass.Fset.Position(revPos).Line)
	}
}
