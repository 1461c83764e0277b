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

// externalBlocking classifies a function outside the program as
// blocking, by the curated tables plus the Wait-name join rule
// (sync.WaitGroup, sync.Cond, and every Wait in the repo share the
// semantics).
func externalBlocking(fn *types.Func) (string, bool) {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if fn.Name() == "Wait" {
			return framework.MethodDesc(fn) + " (join)", true
		}
		if fn.Pkg() != nil {
			if methods, ok := BlockingMethodPkgs[fn.Pkg().Path()]; ok && methods[fn.Name()] {
				return framework.MethodDesc(fn) + " (blocking I/O)", true
			}
		}
		return "", false
	}
	if desc, ok := BlockingFuncs[framework.FuncKey(fn)]; ok {
		return desc, true
	}
	return "", false
}

// externalSummary builds the curated summary for a bodiless node.
func externalSummary(fn *types.Func) *Summary {
	s := &Summary{}
	if desc, ok := externalBlocking(fn); ok {
		s.MayBlock = true
		s.BlockDesc = desc
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
