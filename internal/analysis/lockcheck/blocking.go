package lockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/greenps/greenps/internal/analysis/framework"
	"github.com/greenps/greenps/internal/analysis/scope"
)

// This file owns the curated tables of calls that block — the stdlib and
// the repo's own wire layers — plus the sync.Mutex call classification
// the lockset walk applies. A call is classified where it is made, from
// its callee's name alone; the tables are one-sided by construction: a
// function missing from every table is assumed harmless, so an omission
// can hide a finding but never invent one.

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
// as blocking; the set lists the method names per package path. They
// apply to interface methods too (net.Conn.Read blocks no matter which
// concrete type sits behind it).
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
		"Recv": true, "SendHello": true, "RecvHello": true, "Handshake": true,
		"writeFrame": true, "readFrame": true, "Accept": true,
	},
	scope.ClientPath: {
		"Advertise": true, "Unadvertise": true, "Publish": true,
		"PublishAt": true, "Subscribe": true, "Unsubscribe": true,
		"SendBIR": true, "Close": true,
	},
}

// LockOp classifies a call as a sync.Mutex/RWMutex lock-method call,
// returning the lock's canonical root and the method name.
func LockOp(pass *framework.Pass, call *ast.CallExpr) (root, op string, ok bool) {
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
	obj := pass.Info.Uses[sel.Sel]
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return LockRoot(pass, sel.X), name, true
}

// LockRoot canonicalizes the lock-holding expression so that the same
// lock reached through different receivers compares equal across the
// package's functions: a struct field becomes "TypeName.field", a
// package-level variable "pkgname.var", anything else its printed source
// form.
func LockRoot(pass *framework.Pass, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if selection, ok := pass.Info.Selections[x]; ok && selection.Kind() == types.FieldVal {
			t := selection.Recv()
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
			}
			if named, isNamed := t.(*types.Named); isNamed {
				return named.Obj().Name() + "." + x.Sel.Name
			}
		}
		if v, ok := pass.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := pass.Info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.ParenExpr:
		return LockRoot(pass, x.X)
	}
	return framework.ExprString(pass.Fset, e)
}

// CallName renders a method call as "Type.Method" for diagnostics.
func CallName(pass *framework.Pass, sel *ast.SelectorExpr) string {
	if selection, ok := pass.Info.Selections[sel]; ok {
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
// operation: any method named Wait (sync.WaitGroup, sync.Cond and every
// Wait in the repo share the join semantics), an I/O-shaped method of a
// BlockingMethodPkgs package, or a BlockingFuncs function.
func DirectBlockingCall(pass *framework.Pass, call *ast.CallExpr) (string, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if isSel {
		if selection, ok := pass.Info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			fn := selection.Obj().(*types.Func)
			name := fn.Name()
			if name == "Wait" {
				return CallName(pass, sel) + " (join)", true
			}
			if fn.Pkg() != nil {
				if methods, ok := BlockingMethodPkgs[fn.Pkg().Path()]; ok && methods[name] {
					return CallName(pass, sel) + " (blocking I/O)", true
				}
			}
			return "", false
		}
	}
	// FuncKey of a method or a non-function is "", which no table lists.
	desc, ok := BlockingFuncs[framework.FuncKey(framework.FuncOf(pass.Info, call.Fun))]
	return desc, ok
}
