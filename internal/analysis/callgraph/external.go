package callgraph

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/greenps/greenps/internal/analysis/framework"
	"github.com/greenps/greenps/internal/analysis/scope"
)

// This file owns the curated fact tables for functions the program
// cannot see into — the stdlib and the repo's own wire layers when a
// fixture loads them as export data only — plus the sync.Mutex call
// classification shared by lockcheck and the summary engine. The tables
// are one-sided by construction: a function missing from every table is
// assumed harmless, so an omission can hide a finding but never invent
// one.

// BlockingFuncs are package-level functions that block the calling
// goroutine (or may, for unbounded time), keyed by framework.FuncKey.
var BlockingFuncs = map[string]string{
	"time.Sleep":                  "time.Sleep",
	"io.Copy":                     "io.Copy",
	"io.CopyN":                    "io.CopyN",
	"io.ReadFull":                 "io.ReadFull",
	"io.ReadAll":                  "io.ReadAll",
	"net.Dial":                    "net.Dial",
	"net.DialTimeout":             "net.DialTimeout",
	"net.Listen":                  "net.Listen",
	scope.ParworkPath + ".Run":    "parwork.Run (fork/join)",
	scope.TransportPath + ".Dial": "transport.Dial",
	scope.ClientPath + ".Connect": "client.Connect",
}

// BlockingMethodPkgs are packages all of whose I/O-shaped methods count
// as blocking; the set lists the method names per package path. These
// apply both to curated external summaries and to interface methods
// (net.Conn.Read blocks no matter which concrete type sits behind it).
var BlockingMethodPkgs = map[string]map[string]bool{
	"net": {
		"Read": true, "Write": true, "Accept": true, "Close": false,
		// net.Buffers.WriteTo is the gathered-writev syscall under
		// transport.SendFrames — as blocking as the Write it replaces.
		"WriteTo": true,
	},
	"bufio": {
		"Read": true, "Write": true, "Flush": true, "ReadByte": true,
		"WriteByte": true, "ReadString": true, "WriteString": true,
		"ReadBytes": true, "ReadRune": true, "ReadSlice": true,
		"ReadLine": true, "Peek": true,
	},
	scope.TransportPath: {
		"Send": true, "SendFrames": true,
		"Recv": true, "SendHello": true, "RecvHello": true,
		"writeFrame": true, "readFrame": true, "Accept": true,
	},
	scope.ClientPath: {
		"Advertise": true, "Unadvertise": true, "Publish": true,
		"PublishAt": true, "Subscribe": true, "Unsubscribe": true,
		"SendBIR": true, "Close": true,
	},
}

// NondetSource is one function outside the program whose result is hidden
// nondeterminism. NondetSourceOf is the only list of them: nondet bans a
// reference to any from a deterministic package, detflow follows the
// values they return.
type NondetSource struct {
	// Desc names what a value read from the source is; detflow reports it
	// as a taint's origin.
	Desc string
	// Ban is nondet's reason for forbidding the reference: Desc plus,
	// where there is one, what to do instead.
	Ban string
	// Clock marks the wall-clock reads, the one kind the telemetry package
	// is banned from as well (its clocks are injected).
	Clock bool
}

var (
	wallClock  = NondetSource{Desc: "wall-clock read", Clock: true}
	coreCount  = NondetSource{Desc: "core-count query", Ban: "core-count query; results must depend only on the explicit Parallelism option"}
	cryptoRand = NondetSource{Desc: "crypto/rand read"}
	globalRand = NondetSource{Desc: "global math/rand", Ban: "global math/rand state; plumb an explicitly seeded *rand.Rand through the options struct"}
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
	"os.Getpid":          {Desc: "process-identity read"},
	"os.Hostname":        {Desc: "host-identity read"},
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
	src, ok := nondetSources[framework.FuncKey(fn)]
	if path := fn.Pkg().Path(); path == "math/rand" || path == "math/rand/v2" {
		src, ok = globalRand, !seededRand[fn.Name()]
	}
	if src.Ban == "" {
		src.Ban = src.Desc
	}
	return src, ok
}

// taintSource describes why an external function's results are
// nondeterministic: a NondetSource, or detflow's package-wide telemetry
// policy (every value a telemetry function returns is a runtime
// observation).
func taintSource(fn *types.Func) (string, bool) {
	if src, ok := NondetSourceOf(fn); ok {
		return src.Desc, true
	}
	if fn != nil && fn.Pkg() != nil && scope.IsTelemetry(fn.Pkg().Path()) && returnsValues(fn) {
		return "telemetry read", true
	}
	return "", false
}

func returnsValues(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Results().Len() > 0
}

// externalBlocking classifies a function outside the program as
// blocking, by the curated tables plus the Wait-name join rule
// (sync.WaitGroup, sync.Cond, and every Wait in the repo share the
// semantics).
func externalBlocking(fn *types.Func) (string, bool) {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if fn.Name() == "Wait" {
			return MethodDesc(fn) + " (join)", true
		}
		if fn.Pkg() != nil {
			if methods, ok := BlockingMethodPkgs[fn.Pkg().Path()]; ok && methods[fn.Name()] {
				return MethodDesc(fn) + " (blocking I/O)", true
			}
		}
		return "", false
	}
	if desc, ok := BlockingFuncs[framework.FuncKey(fn)]; ok {
		return desc, true
	}
	return "", false
}

// MethodDesc renders "Type.Method" for a method and the bare name for a
// package-level function.
func MethodDesc(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// externalSummary builds the curated summary for a bodiless node.
func externalSummary(fn *types.Func) *Summary {
	s := &Summary{}
	if desc, ok := externalBlocking(fn); ok {
		s.MayBlock = true
		s.BlockDesc = desc
	}
	if desc, ok := taintSource(fn); ok {
		s.Taints = true
		s.TaintDesc = desc
	}
	return s
}

// LockOp classifies a call as a sync.Mutex/RWMutex lock-method call,
// returning the lock's canonical root and the method name. Shared by
// lockcheck and the summary engine's lockset pre-analysis.
func LockOp(pkg *framework.Package, call *ast.CallExpr) (root, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	obj := pkg.Info.Uses[sel.Sel]
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return LockRoot(pkg, sel.X), name, true
}

// LockRoot canonicalizes the lock-holding expression so that the same
// lock reached through different receivers compares equal across
// functions and packages: a struct field becomes "TypeName.field", a
// package-level variable "pkgname.var", anything else its printed source
// form.
func LockRoot(pkg *framework.Package, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if selection, ok := pkg.Info.Selections[x]; ok && selection.Kind() == types.FieldVal {
			t := selection.Recv()
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
			}
			if named, isNamed := t.(*types.Named); isNamed {
				return named.Obj().Name() + "." + x.Sel.Name
			}
		}
		if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.ParenExpr:
		return LockRoot(pkg, x.X)
	}
	return framework.ExprString(pkg.Fset, e)
}

// CallName renders a method call as "Type.Method" for diagnostics.
func CallName(pkg *framework.Package, sel *ast.SelectorExpr) string {
	if selection, ok := pkg.Info.Selections[sel]; ok {
		t := selection.Recv()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return named.Obj().Name() + "." + sel.Sel.Name
		}
		if _, isIface := t.Underlying().(*types.Interface); isIface {
			s := types.TypeString(t, func(p *types.Package) string { return p.Name() })
			if !strings.Contains(s, "{") {
				return s + "." + sel.Sel.Name
			}
		}
	}
	return sel.Sel.Name
}

// DirectBlockingCall classifies a call expression as a curated blocking
// operation without consulting summaries — the intraprocedural rule
// lockcheck applied before the interprocedural layer existed. The
// summary path reports the same sites through edges; this survives for
// call sites the resolver widened (an opaque Wait passed as a value).
func DirectBlockingCall(pkg *framework.Package, call *ast.CallExpr) (string, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if isSel {
		if selection, ok := pkg.Info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			fn := selection.Obj().(*types.Func)
			name := fn.Name()
			if name == "Wait" {
				return CallName(pkg, sel) + " (join)", true
			}
			if fn.Pkg() != nil {
				if methods, ok := BlockingMethodPkgs[fn.Pkg().Path()]; ok && methods[name] {
					return CallName(pkg, sel) + " (blocking I/O)", true
				}
			}
			return "", false
		}
	}
	fn := framework.FuncOf(pkg.Info, call.Fun)
	if fn == nil {
		return "", false
	}
	if desc, ok := BlockingFuncs[framework.FuncKey(fn)]; ok {
		return desc, true
	}
	return "", false
}
