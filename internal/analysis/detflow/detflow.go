// Package detflow is greenvet's determinism analyzer. CROC compares the
// plans brokers compute byte for byte, so a plan must be a pure function
// of the broker snapshot: one hidden clock read, random draw or map visit
// order makes two brokers disagree about an identical snapshot.
//
// In the deterministic packages (scope.DeterministicPackages) detflow
// reports four kinds of finding:
//
//   - every reference, call or function value, to a NondetSourceOf
//     source: wall clock, global math/rand, crypto/rand, core count,
//     process and host identity (seeded generators — rand.New,
//     rand.NewSource — stay allowed; they are how the FBF and PAIRWISE
//     options plumb their Seed);
//   - every select with two or more communication cases, since the
//     runtime picks a ready case at random;
//   - every import of the telemetry package and every call into it:
//     instrumentation observes the live path and must never feed a plan;
//   - every range over a map whose body it cannot prove
//     order-independent (see orderIndependent).
//
// The telemetry package itself may not reference the wall clock: its
// clocks are injected, so it runs on a virtual clock under test.
//
// Every check is syntactic and local to one package: detflow follows no
// value across a call, so it does not see a nondeterministic value
// produced outside the deterministic packages and passed in. The scope
// package's TestPlanPathImportClosure holds the plan path's other
// in-module imports to message, extsort and parwork, whose one source,
// parwork's GOMAXPROCS worker count, the plan oracles
// TestCRAMDeterministicAcrossParallelism and
// TestPlanEquivalenceAcrossWorkers pin.
//
// A justified //greenvet:detflow-ok <why> on the flagged line (or the
// line above) suppresses any of these findings; -audit tracks the
// directives' liveness like every other suppression.
package detflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"github.com/greenps/greenps/internal/analysis/framework"
	"github.com/greenps/greenps/internal/analysis/scope"
)

// Analyzer is the detflow check.
var Analyzer = &framework.Analyzer{
	Name: "detflow",
	Doc:  "keeps plans pure functions of the snapshot: no clock, global rand, racy select, telemetry or order-dependent map range in plan-producing packages",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if path := pass.Pkg.Path(); scope.IsDeterministic(path) {
		checkSyntax(pass)
	} else if scope.IsTelemetry(path) {
		checkTelemetryClock(pass)
	}
	return nil
}

// reportf reports a finding unless a detflow-ok directive covers it. It
// is consulted only once the finding is definite, so -audit can equate a
// matched directive with a live suppression.
func reportf(pass *framework.Pass, pos token.Pos, format string, args ...any) {
	if !pass.Suppressed(pos, "detflow-ok") {
		pass.Reportf(pos, format, args...)
	}
}

// checkSyntax applies the deterministic packages' four syntactic bans.
func checkSyntax(pass *framework.Pass) {
	for _, f := range pass.Files {
		for _, im := range f.Imports {
			if p, err := strconv.Unquote(im.Path.Value); err == nil && p == scope.TelemetryPath {
				reportf(pass, im.Pos(), "deterministic package imports %s: telemetry observes the live path and must never feed plan computation", p)
			}
		}
		framework.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				// A bare reference counts: assigning time.Now to a clock
				// field smuggles the wall clock in as surely as calling it.
				fn := framework.FuncOf(pass.Info, x)
				if src, ok := NondetSourceOf(fn); ok {
					reportf(pass, x.Pos(), "reference to %s in deterministic package: %s", framework.FuncKey(fn), src.Ban)
				}
			case *ast.CallExpr:
				checkTelemetryCall(pass, x)
			case *ast.SelectStmt:
				checkSelect(pass, x)
			case *ast.RangeStmt:
				if framework.IsMapType(pass.Info.TypeOf(x.X)) && !orderIndependent(pass.Info, x, stack) {
					reportf(pass, x.Pos(), "range over map %s has an order-dependent body; iterate sorted keys, make the body commutative, or justify with //greenvet:detflow-ok",
						framework.ExprString(pass.Fset, x.X))
				}
			}
			return true
		})
	}
}

// checkTelemetryCall flags a call that resolves into the telemetry
// package — instrument mutators and reads alike — so a finding points at
// the code to move, not only at the import.
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
	reportf(pass, sel.Pos(), "call to telemetry %s inside the deterministic core; telemetry observes the live path and must never touch plan computation", framework.MethodDesc(fn))
}

// checkSelect flags a select that can choose among several ready channels.
func checkSelect(pass *framework.Pass, sel *ast.SelectStmt) {
	comms := 0
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
			comms++
		}
	}
	if comms >= 2 {
		reportf(pass, sel.Pos(), "select with %d communication cases in deterministic package: the runtime picks a ready case at random", comms)
	}
}

// checkTelemetryClock flags wall-clock references in the telemetry
// package. Global rand and racy selects stay allowed there: telemetry is
// concurrent by design and produces no plan.
func checkTelemetryClock(pass *framework.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := framework.FuncOf(pass.Info, sel)
			if src, ok := NondetSourceOf(fn); ok && src.Clock {
				reportf(pass, sel.Pos(), "reference to %s in the telemetry package: clocks are injected by callers so telemetry stays testable on a virtual clock", framework.FuncKey(fn))
			}
			return true
		})
	}
}

// NondetSource is one function outside the program whose result is hidden
// nondeterminism. NondetSourceOf is the only list of them.
type NondetSource struct {
	// Ban is the reason a deterministic package may not reference the
	// source: what a value read from it is and, where there is one, what
	// to do instead.
	Ban string
	// Clock marks the wall-clock reads, the one kind the telemetry package
	// is banned from as well (its clocks are injected).
	Clock bool
}

var (
	wallClock  = NondetSource{Ban: "wall-clock read", Clock: true}
	coreCount  = NondetSource{Ban: "core-count query; a plan must not depend on the machine, so take any worker count from an explicit option"}
	cryptoRand = NondetSource{Ban: "crypto/rand read"}
	globalRand = NondetSource{Ban: "global math/rand state; plumb an explicitly seeded *rand.Rand through the options struct"}
)

// nondetSources is keyed by framework.FuncKey. math/rand is not listed:
// the whole package is a source except seededRand.
var nondetSources = map[string]NondetSource{
	"time.Now":           wallClock,
	"time.Since":         wallClock,
	"time.Until":         wallClock,
	"runtime.NumCPU":     coreCount,
	"runtime.GOMAXPROCS": coreCount,
	"crypto/rand.Read":   cryptoRand,
	"crypto/rand.Int":    cryptoRand,
	"crypto/rand.Prime":  cryptoRand,
	"os.Getpid":          {Ban: "process-identity read"},
	"os.Hostname":        {Ban: "host-identity read"},
}

// seededRand are the math/rand package-level functions that construct
// explicitly seeded sources rather than touching process-global state —
// how the FBF and PAIRWISE options plumb their Seed.
var seededRand = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true, // operates on an explicit *rand.Rand
}

// NondetSourceOf classifies a package-level function as a source of
// hidden nondeterminism. Methods never are: those on *rand.Rand draw from
// an explicit seeded source.
func NondetSourceOf(fn *types.Func) (NondetSource, bool) {
	if fn == nil || fn.Pkg() == nil {
		return NondetSource{}, false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return NondetSource{}, false
	}
	if path := fn.Pkg().Path(); path == "math/rand" || path == "math/rand/v2" {
		return globalRand, !seededRand[fn.Name()]
	}
	src, ok := nondetSources[framework.FuncKey(fn)]
	return src, ok
}

// orderIndependent reports whether every iteration of a map range
// commutes with every other, so Go's randomized visit order cannot show.
// It accepts the loop shapes the deterministic packages use and nothing
// else:
//
//   - collect, then sort: s = append(s, pure...), where the enclosing
//     function sorts s after the loop;
//   - integer accumulation: x += pure (also -=, |=, &=, ^=) and x++ / x--
//     on an integer x (floating-point addition is not associative);
//   - map-element writes: m[pure] = pure;
//   - nested ranges over a pure expression, and if guards with a pure
//     condition (no init statement, no else), whose bodies are held to the
//     same rules.
//
// An early exit, a call, a local declaration or anything else is
// order-dependent as far as this check knows.
func orderIndependent(info *types.Info, rs *ast.RangeStmt, stack []ast.Node) bool {
	c := &mapRange{info: info}
	if !c.stmts(rs.Body.List) {
		return false
	}
	for _, s := range c.appended {
		if !sortedAfter(info, framework.EnclosingFunc(stack), rs.End(), s) {
			return false
		}
	}
	return true
}

// mapRange is the proof state of one map range: the slices its body
// appends to, each of which must be sorted after the loop.
type mapRange struct {
	info     *types.Info
	appended []types.Object
}

func (c *mapRange) pure(e ast.Expr) bool { return framework.IsPure(c.info, e) }

func (c *mapRange) stmts(list []ast.Stmt) bool {
	for _, s := range list {
		if !c.stmt(s) {
			return false
		}
	}
	return true
}

func (c *mapRange) stmt(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.AssignStmt:
		return len(st.Lhs) == 1 && len(st.Rhs) == 1 && c.assign(st.Tok, st.Lhs[0], st.Rhs[0])
	case *ast.IncDecStmt:
		return c.accumulates(st.X)
	case *ast.RangeStmt:
		return c.pure(st.X) && c.stmts(st.Body.List)
	case *ast.IfStmt:
		return st.Init == nil && st.Else == nil && c.pure(st.Cond) && c.stmts(st.Body.List)
	}
	return false
}

func (c *mapRange) assign(tok token.Token, lhs, rhs ast.Expr) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return c.accumulates(lhs) && c.pure(rhs)
	case token.ASSIGN:
		if s := c.appendTarget(lhs, rhs); s != nil {
			c.appended = append(c.appended, s)
			return true
		}
		ix, ok := lhs.(*ast.IndexExpr)
		return ok && framework.IsMapType(c.info.TypeOf(ix.X)) && c.pure(lhs) && c.pure(rhs)
	}
	return false
}

func (c *mapRange) accumulates(x ast.Expr) bool {
	return framework.IsIntegerType(c.info.TypeOf(x)) && c.pure(x)
}

// appendTarget returns the slice variable of s = append(s, pure...), or
// nil for any other assignment.
func (c *mapRange) appendTarget(lhs, rhs ast.Expr) types.Object {
	call, isCall := rhs.(*ast.CallExpr)
	if !isCall || len(call.Args) == 0 {
		return nil
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || c.info.Uses[fn] != types.Universe.Lookup("append") {
		return nil
	}
	s, isIdent := lhs.(*ast.Ident)
	first, firstIdent := call.Args[0].(*ast.Ident)
	if !isIdent || !firstIdent || c.info.ObjectOf(s) != c.info.ObjectOf(first) {
		return nil
	}
	for _, arg := range call.Args[1:] {
		if !c.pure(arg) {
			return nil
		}
	}
	return c.info.ObjectOf(s)
}

// sortFuncs are the sorters that launder an append order, keyed by
// framework.FuncKey.
var sortFuncs = map[string]bool{
	"sort.Strings":          true,
	"sort.Ints":             true,
	"sort.Float64s":         true,
	"sort.Slice":            true,
	"sort.SliceStable":      true,
	"sort.Sort":             true,
	"sort.Stable":           true,
	"slices.Sort":           true,
	"slices.SortFunc":       true,
	"slices.SortStableFunc": true,
}

// sortedAfter reports whether the function body sorts the slice variable
// s somewhere after the loop ends.
func sortedAfter(info *types.Info, body *ast.BlockStmt, loopEnd token.Pos, s types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() >= loopEnd && len(call.Args) > 0 &&
			sortFuncs[framework.FuncKey(framework.FuncOf(info, call.Fun))] {
			if id, ok := call.Args[0].(*ast.Ident); ok && info.ObjectOf(id) == s {
				found = true
			}
		}
		return !found
	})
	return found
}
