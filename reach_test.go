package greenps_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/analysis/framework"
)

// testSupport lists the non-test code that only tests reach, each with
// the reason it lives outside a _test.go file. The census counts these as
// roots, so what they call is reached too.
var testSupport = map[string]string{
	"github.com/greenps/greenps/internal/analysis/analysistest":          "greenvet's fixture runner, imported by every analyzer's test package",
	"github.com/greenps/greenps/internal/analysis/framework.LoadFixture": "loads greenvet's out-of-module fixtures, for framework and analysistest",
}

// stdlibCalls lists the method sets of interfaces through which the
// standard library calls methods it is handed: a type with every method
// of a set has those methods reached.
var stdlibCalls = [][]string{
	{"Error"},                              // error, printed by fmt
	{"String"},                             // fmt.Stringer
	{"Len", "Less", "Swap"},                // sort.Interface
	{"Len", "Less", "Swap", "Push", "Pop"}, // container/heap's Interface
	{"MarshalJSON"},                        // encoding/json's Marshaler
	{"UnmarshalJSON"},                      // encoding/json's Unmarshaler
	{"Unwrap"},                             // errors.Is and errors.As
	{"Timeout"},                            // os.IsTimeout
}

// reachCensus records every function and method declared in a set of
// packages, with what each one refers to, and computes which of them a
// set of roots reaches. A reference is any use of a function or method,
// called or taken as a value. A use of a method of an interface declared
// in the census reaches every method of that name; a use of one declared
// outside it, such as net.Error's Timeout, reaches each method of that
// name whose type has every method of the interface.
type reachCensus struct {
	pkgs    map[string]bool
	sites   map[string]token.Position
	refs    map[string][]string        // function key -> the dispatch keys it uses
	methods map[string][]string        // method name -> keys of the methods of that name
	types   map[string]map[string]bool // "pkgpath.Type" -> its method names
	roots   []string
}

func newReachCensus() *reachCensus {
	c := &reachCensus{
		pkgs:    make(map[string]bool),
		sites:   make(map[string]token.Position),
		refs:    make(map[string][]string),
		methods: make(map[string][]string),
		types:   make(map[string]map[string]bool),
	}
	for _, set := range stdlibCalls {
		for _, name := range set {
			c.roots = append(c.roots, dispatchKey(name, set))
		}
	}
	return c
}

// reachKey names a function across separately loaded packages, which do
// not share types.Object identity: "pkgpath.Func" or "pkgpath.Type.Method".
func reachKey(fn *types.Func) string {
	fn = fn.Origin()
	return fn.Pkg().Path() + "." + framework.MethodDesc(fn)
}

// dispatchKey names a call of method name through an interface:
// ".name" for an interface of the census, ".name:m1,m2,…" with the
// interface's method names for one declared outside it.
func dispatchKey(name string, iface []string) string {
	if iface == nil {
		return "." + name
	}
	return "." + name + ":" + strings.Join(iface, ",")
}

// add records pkg's declarations. Its roots are the functions
// isProgramRoot picks, every init function and every package-level
// initializer.
func (c *reachCensus) add(pkg *framework.Package) {
	c.pkgs[pkg.Path] = true
	initKey := pkg.Path + ".init"
	c.roots = append(c.roots, initKey)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn := pkg.Info.Defs[d.Name].(*types.Func)
				key := initKey
				if d.Recv != nil || d.Name.Name != "init" {
					key = reachKey(fn)
					c.sites[key] = pkg.Fset.Position(d.Pos())
					if d.Recv != nil {
						c.addMethod(key, fn.Name())
					}
					if isProgramRoot(pkg, fn) {
						c.roots = append(c.roots, key)
					}
				}
				if d.Body != nil {
					c.refs[key] = append(c.refs[key], c.references(pkg.Info, d.Body)...)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					c.refs[initKey] = append(c.refs[initKey], c.references(pkg.Info, d)...)
				}
			}
		}
	}
}

// addMethod records the method with the given key under its name and its
// type.
func (c *reachCensus) addMethod(key, name string) {
	c.methods[name] = append(c.methods[name], key)
	typ := strings.TrimSuffix(key, "."+name)
	if c.types[typ] == nil {
		c.types[typ] = make(map[string]bool)
	}
	c.types[typ][name] = true
}

// references lists what a node uses: functions by reachKey, interface
// methods by dispatchKey.
func (c *reachCensus) references(info *types.Info, n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv()
		inCensus := fn.Pkg() != nil && c.pkgs[fn.Pkg().Path()]
		switch {
		case recv != nil && types.IsInterface(recv.Type()):
			var iface []string
			if !inCensus {
				it := recv.Type().Underlying().(*types.Interface)
				for i := 0; i < it.NumMethods(); i++ {
					iface = append(iface, it.Method(i).Name())
				}
			}
			out = append(out, dispatchKey(fn.Name(), iface))
		case inCensus:
			out = append(out, reachKey(fn))
		}
		return true
	})
	return out
}

// unreached returns "file:line: key" for every recorded function the roots
// do not reach, sorted.
func (c *reachCensus) unreached() []string {
	reached := make(map[string]bool)
	work := append([]string(nil), c.roots...)
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[key] {
			continue
		}
		reached[key] = true
		dispatch, ok := strings.CutPrefix(key, ".")
		if !ok {
			work = append(work, c.refs[key]...)
			continue
		}
		name, iface, _ := strings.Cut(dispatch, ":")
	methods:
		for _, m := range c.methods[name] {
			if iface != "" {
				has := c.types[strings.TrimSuffix(m, "."+name)]
				for _, other := range strings.Split(iface, ",") {
					if !has[other] {
						continue methods
					}
				}
			}
			work = append(work, m)
		}
	}
	var out []string
	for key, pos := range c.sites {
		if !reached[key] {
			out = append(out, pos.String()+": "+key)
		}
	}
	sort.Strings(out)
	return out
}

// TestEveryFunctionReached fails on any non-test function or method of
// the module or of bench/ that no program reaches. The roots are every
// main (cmd/, examples/ and bench/), every init and package-level
// initializer, the exported API of the greenps package, and the test
// support listed in testSupport. A function only tests call belongs in a
// _test.go file of its package, or nowhere.
func TestEveryFunctionReached(t *testing.T) {
	c := newReachCensus()
	for _, dir := range []string{".", "bench"} {
		pkgs, err := framework.Load(dir, "./...")
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			c.add(pkg)
		}
	}
	for key := range testSupport {
		if _, ok := c.sites[key]; !ok && !c.pkgs[key] {
			t.Errorf("testSupport names %s, which no loaded package declares", key)
		}
	}
	for _, u := range c.unreached() {
		t.Errorf("%s is reached by no program", relPath(u))
	}
}

// TestReachCensusFixture runs the census over testdata/reach, whose main
// reaches one function directly and one method only through an interface
// and leaves one exported function unreached: the census must flag that
// function and nothing else.
func TestReachCensusFixture(t *testing.T) {
	pkg, err := framework.LoadFixture(filepath.Join("testdata", "reach"), "fixture/reach")
	if err != nil {
		t.Fatal(err)
	}
	c := newReachCensus()
	c.add(pkg)
	got := c.unreached()
	if len(got) != 1 || !strings.HasSuffix(got[0], "main.go:19:1: fixture/reach.Unreached") {
		t.Fatalf("census of the fixture = %q, want exactly main.go:19's Unreached", got)
	}
}

// isProgramRoot reports whether fn is a main, part of the greenps API, or
// test support.
func isProgramRoot(pkg *framework.Package, fn *types.Func) bool {
	if _, ok := testSupport[pkg.Path]; ok {
		return true
	}
	if _, ok := testSupport[reachKey(fn)]; ok {
		return true
	}
	recv := fn.Type().(*types.Signature).Recv()
	if pkg.Types.Name() == "main" {
		return recv == nil && fn.Name() == "main"
	}
	if pkg.Path != "github.com/greenps/greenps" || !fn.Exported() {
		return false
	}
	if recv == nil {
		return true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Exported()
}

// relPath shortens a census line's absolute file name to the repo.
func relPath(line string) string {
	if abs, err := filepath.Abs("."); err == nil {
		return strings.TrimPrefix(line, abs+string(filepath.Separator))
	}
	return line
}
