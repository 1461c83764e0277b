// Package lockcheck reports two classes of sync.Mutex/RWMutex hazard:
//
//  1. A lock held across a blocking operation — a channel send/receive,
//     a default-less select, a range over a channel, a Wait-style join,
//     a sleep, a call into the wire layers (net, bufio, io,
//     transport.Conn, client.Client), or a call to any function whose
//     summary says it may transitively block, however many calls deep
//     the actual operation sits. A goroutine that blocks while holding
//     a mutex stalls every contender for as long as the operation
//     takes; if the operation can only complete once a contender runs
//     (the broker event-loop feeding its own inbox, say), the stall is
//     a deadlock.
//
//  2. Inconsistent lock-acquisition order: two locks acquired in both
//     the A-then-B and B-then-A orders anywhere in the program — within
//     one function, across functions, or across packages, composed
//     through the call graph (a lock held at a call site orders before
//     everything the callee transitively acquires). Each order is
//     individually fine; together they are the classic two-thread
//     deadlock, and no test run is guaranteed to interleave into it.
//
// The locksets come from the call graph (callgraph.Node.HeldSites): a
// forward may-analysis in which a deferred unlock keeps its lock held to
// the function's exit, so a report reads "may be held". One report is
// issued per (lock, function): a //greenvet:lock-ok <justification> at
// the first reported site covers that lock for the rest of the function.
package lockcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"

	"github.com/greenps/greenps/internal/analysis/callgraph"
	"github.com/greenps/greenps/internal/analysis/framework"
)

// Analyzer is the interprocedural lockcheck check. The directive name
// stays "lock-ok" — existing suppressions keep their meaning.
var Analyzer = &framework.Analyzer{
	Name: "lockcheck-ip",
	Doc:  "flags mutexes held across (transitively) blocking operations and program-wide lock-acquisition-order inversions",
	Run:  run,
}

// run classifies each of the package's held sites in source order — a
// channel operation by its recorded description, a call as a curated
// blocking operation or through its callees' summaries — and reports
// each held lock at the first blocking site of its function.
func run(pass *framework.Pass) error {
	g := callgraph.Of(pass)
	for _, n := range g.Nodes {
		if n.Pkg == nil || n.Pkg.Types != pass.Pkg {
			continue
		}
		reported := make(map[string]bool)
		for _, site := range n.HeldSites {
			desc, ok := site.Op, site.Op != ""
			if call, isCall := site.Node.(*ast.CallExpr); isCall {
				if desc, ok = callgraph.DirectBlockingCall(n.Pkg, call); !ok {
					desc, ok = summaryBlocking(g, call)
				}
			}
			if ok {
				reportBlocked(pass, site.Node.Pos(), desc, site.Held, reported)
			}
		}
	}
	reportInversions(pass, g)
	return nil
}

// summaryBlocking classifies a call as blocking through the call graph:
// some callee of the site (excluding spawned and deferred invocations)
// has a may-block summary. The description carries the call chain down
// to the leaf operation, so a report names the two-calls-deep channel
// send it is actually about.
func summaryBlocking(g *callgraph.Graph, call *ast.CallExpr) (string, bool) {
	for _, e := range g.CallEdges[call] {
		if e.Go || e.Defer {
			continue
		}
		s := e.Callee.Summary
		if s == nil || !s.MayBlock {
			continue
		}
		return "call to " + e.Callee.Name + ", which may block: " + s.BlockChain(), true
	}
	return "", false
}

// reportBlocked emits one diagnostic per held lock at a blocking site,
// the first time that lock is diagnosed in the function.
func reportBlocked(pass *framework.Pass, pos token.Pos, desc string, held []callgraph.HeldLock, reported map[string]bool) {
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

// reportInversions reports lock pairs acquired in both orders anywhere
// in the program, using the call-graph-composed order edges. Each
// direction's first acquisition site is the anchor; when both live in
// the same package the pair is reported once from the lexically smaller
// outer lock's site, and when they span packages each package reports
// the direction it owns (each pass sees only its own files, and a
// suppression must live next to the code it excuses).
func reportInversions(pass *framework.Pass, g *callgraph.Graph) {
	type pair struct{ outer, inner string }
	type site struct {
		pos token.Pos
		pkg string
		via string
	}
	first := make(map[pair]site)
	for _, e := range g.OrderEdges() {
		p := pair{e.Outer, e.Inner}
		s, ok := first[p]
		if !ok || e.Pos < s.pos {
			first[p] = site{pos: e.Pos, pkg: e.Pkg.Path, via: e.Via}
		}
	}
	pairs := make([]pair, 0, len(first))
	for p := range first {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].outer != pairs[j].outer {
			return pairs[i].outer < pairs[j].outer
		}
		return pairs[i].inner < pairs[j].inner
	})
	here := pass.Pkg.Path()
	for _, p := range pairs {
		rev := pair{p.inner, p.outer}
		revSite, ok := first[rev]
		if !ok {
			continue
		}
		s := first[p]
		samePkg := s.pkg == revSite.pkg
		if samePkg {
			// Report each unordered pair once, from the lexically
			// smaller outer, if this pass owns the package.
			if p.outer >= p.inner || s.pkg != here {
				continue
			}
		} else if s.pkg != here {
			// Cross-package: each side reports its own direction.
			continue
		}
		// Consulted only once the finding is definite, so -audit can
		// equate a matched directive with a live suppression.
		if pass.Suppressed(s.pos, "lock-ok") {
			continue
		}
		if samePkg && pass.Suppressed(revSite.pos, "lock-ok") {
			continue
		}
		via := ""
		if s.via != "" {
			via = " (via call to " + s.via + ")"
		}
		revPosition := pass.Fset.Position(revSite.pos)
		revWhere := fmt.Sprintf("line %d", revPosition.Line)
		if !samePkg {
			revWhere = fmt.Sprintf("%s:%d", revPosition.Filename, revPosition.Line)
		}
		pass.Reportf(s.pos, "%s acquired%s while holding %s, but %s acquires them in the opposite order; pick one order program-wide or justify with //greenvet:lock-ok",
			p.inner, via, p.outer, revWhere)
	}
}
