package framework

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// WithStack walks the file like ast.Inspect but additionally hands fn the
// stack of ancestor nodes (outermost first, not including n itself).
// Returning false prunes the subtree.
func WithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// EnclosingFunc returns the innermost function body enclosing the node the
// stack leads to: the body of a FuncLit or FuncDecl, whichever is nearest.
func EnclosingFunc(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			return f.Body
		case *ast.FuncDecl:
			return f.Body
		}
	}
	return nil
}

// ExprString renders a (small) expression back to source, for diagnostics.
func ExprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "<expr>"
	}
	return buf.String()
}

// FuncOf resolves an expression in call position (or a bare reference) to
// the package-level *types.Func it denotes, or nil. Methods (functions
// with a receiver) resolve to nil: the analyzers' forbidden-function lists
// name package-level functions only.
func FuncOf(info *types.Info, e ast.Expr) *types.Func {
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.SelectorExpr:
		id = x.Sel
	case *ast.Ident:
		id = x
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// FuncKey returns "pkgpath.Name" for a package-level function, or "".
func FuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
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

// IsPure conservatively reports whether evaluating the expression cannot
// have side effects and cannot depend on evaluation order: no function
// calls (except the pure builtins len, cap, min, max and type
// conversions), no channel receives, no function literals.
func IsPure(info *types.Info, e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
				return true // conversion: arguments still inspected
			}
			if fn, ok := x.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[fn].(*types.Builtin); ok {
					switch b.Name() {
					case "len", "cap", "min", "max":
						return true
					}
				}
			}
			pure = false
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				pure = false
				return false
			}
		case *ast.FuncLit:
			pure = false
			return false
		}
		return true
	})
	return pure
}

// IsIntegerType reports whether t's underlying type is an integer kind
// (whose += accumulation is exact and therefore order-insensitive, unlike
// floating point).
func IsIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// IsMapType reports whether t's underlying type is a map.
func IsMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
