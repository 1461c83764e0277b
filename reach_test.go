package greenps_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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
	pkgs, err := censusPackages()
	if err != nil {
		t.Fatal(err)
	}
	c := newReachCensus()
	for _, pkg := range pkgs {
		c.add(pkg)
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

// censusPackages loads, once per test binary, the non-test packages of
// the module and of bench/ that both censuses read.
var censusPackages = sync.OnceValues(func() ([]*framework.Package, error) {
	var pkgs []*framework.Package
	for _, dir := range []string{".", "bench"} {
		loaded, err := framework.Load(dir, "./...")
		if err != nil {
			return nil, fmt.Errorf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, loaded...)
	}
	return pkgs, nil
})

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

// fieldAllowlist lists the fields no program reads that stay, keyed
// "pkgpath.Type.Field", each with the reason.
var fieldAllowlist = map[string]string{
	"github.com/greenps/greenps/internal/allocation.CRAMStats.OneToManyApplied": "TestCRAMGolden and the determinism test use it as an oracle",
	"github.com/greenps/greenps/internal/analysis/framework.Pass.live":          "every pass writes the shared map, and executePackage reads it through its own reference",
	"github.com/greenps/greenps/internal/broker.Core.clients":                   "bench/layers.go calls AddClient, so its deletion waits for the bench lane (ROADMAP item 3)",
	"github.com/greenps/greenps/internal/deploy.publisherState.broker":          "the Apply placement tests read it",
	"github.com/greenps/greenps/internal/deploy.subscriberState.broker":         "the Apply placement tests read it",
	"github.com/greenps/greenps/internal/sim.Delivery.ClientID":                 "the sim-vs-live and routing oracles read it",
	"github.com/greenps/greenps/internal/sim.Delivery.Pub":                      "the sim-vs-live and routing oracles read it",
	"github.com/greenps/greenps/internal/transport.PoolStats.Puts":              "TestConnPoolBalance's leak check",
	"github.com/greenps/greenps/internal/transport.PoolStats.Drops":             "TestConnPoolBalance's leak check",
}

// fieldCensus records every struct field declared in a set of packages
// and whether any code reads it. A field is read when a selector names
// it anywhere but a write position: the left side of an assignment, an
// op-assign or ++/--, the map or slice of an indexed left side, the
// first argument of delete or clear, and the x.f of x.f = append(x.f, …).
// A composite-literal key is no selector, so it writes too. A tagged
// field counts as read (encoding/json reads it), and so does an exported
// field of an exported type of the greenps package (the public API).
// Fields are keyed by declaring file, line and name: a field imported
// from export data keeps no other link to its declaration, not even the
// column.
type fieldCensus struct {
	fields map[string]*censusField
	read   map[string]bool
}

type censusField struct {
	key string // "pkgpath.Type.Field"
	pos token.Position
}

// String reports the field as "file:line: key".
func (f *censusField) String() string {
	return fmt.Sprintf("%s:%d: %s", f.pos.Filename, f.pos.Line, f.key)
}

func newFieldCensus() *fieldCensus {
	return &fieldCensus{fields: make(map[string]*censusField), read: make(map[string]bool)}
}

// add records pkg's struct fields and the fields its code reads.
func (c *fieldCensus) add(pkg *framework.Package) {
	api := pkg.Path == "github.com/greenps/greenps"
	for _, f := range pkg.Files {
		seen := make(map[*ast.StructType]bool)
		var declare func(prefix string, exported bool, st *ast.StructType)
		declare = func(prefix string, exported bool, st *ast.StructType) {
			seen[st] = true
			for _, fld := range st.Fields.List {
				for _, v := range fieldVars(pkg.Info, fld) {
					name := prefix + "." + v.Name()
					c.fields[fieldKey(pkg, v)] = &censusField{key: pkg.Path + "." + name, pos: pkg.Fset.Position(v.Pos())}
					if fld.Tag != nil || exported && v.Exported() {
						c.read[fieldKey(pkg, v)] = true
					}
					ast.Inspect(fld.Type, func(n ast.Node) bool {
						if inner, ok := n.(*ast.StructType); ok {
							declare(name, false, inner)
							return false
						}
						return true
					})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					declare(n.Name.Name, api && n.Name.IsExported(), st)
				}
			case *ast.StructType:
				if !seen[n] {
					declare("struct", false, n)
				}
			}
			return true
		})
		writes := writePositions(pkg.Info, f)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := pkg.Info.Selections[sel]
			if s == nil {
				return true
			}
			// Each embedded field a promoted selector passes through is read.
			path := s.Index()
			t := s.Recv()
			for _, i := range path[:len(path)-1] {
				v := structOf(t).Field(i)
				c.markRead(pkg, v)
				t = v.Type()
			}
			if s.Kind() == types.FieldVal && !writes[sel] {
				c.markRead(pkg, s.Obj().(*types.Var))
			}
			return true
		})
	}
}

func (c *fieldCensus) markRead(pkg *framework.Package, v *types.Var) {
	c.read[fieldKey(pkg, v.Origin())] = true
}

// fieldKey names a field across separately type-checked packages.
func fieldKey(pkg *framework.Package, v *types.Var) string {
	pos := pkg.Fset.Position(v.Pos())
	return fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, v.Name())
}

// fieldVars returns the field objects one field list entry declares.
func fieldVars(info *types.Info, fld *ast.Field) []*types.Var {
	if len(fld.Names) == 0 {
		// An embedded field is defined by its type's name.
		e := fld.Type
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.IndexListExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				e = x.Sel
			}
			return []*types.Var{info.Defs[e.(*ast.Ident)].(*types.Var)}
		}
	}
	var out []*types.Var
	for _, id := range fld.Names {
		if id.Name != "_" {
			out = append(out, info.Defs[id].(*types.Var))
		}
	}
	return out
}

// structOf returns the struct type t or *t stands for.
func structOf(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying().(*types.Struct)
}

// writePositions returns the field selectors of f that only store: see
// fieldCensus.
func writePositions(info *types.Info, f *ast.File) map[*ast.SelectorExpr]bool {
	writes := make(map[*ast.SelectorExpr]bool)
	// store marks the field selectors a store into e writes through: e
	// itself, the map or slice of an index, and the struct value a field
	// of it lives in. A pointer on the way is read, not written.
	var store func(e ast.Expr)
	store = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			store(e.X)
		case *ast.SelectorExpr:
			if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
				writes[e] = true
				if _, ptr := info.TypeOf(e.X).Underlying().(*types.Pointer); !ptr {
					store(e.X)
				}
			}
		}
	}
	builtin := func(e ast.Expr, name string) (*ast.CallExpr, bool) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return nil, false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != name {
			return nil, false
		}
		_, ok = info.Uses[id].(*types.Builtin)
		return call, ok && len(call.Args) > 0
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				store(lhs)
				if len(n.Rhs) != len(n.Lhs) {
					continue
				}
				if call, ok := builtin(n.Rhs[i], "append"); ok && types.ExprString(call.Args[0]) == types.ExprString(lhs) {
					store(call.Args[0])
				}
			}
		case *ast.IncDecStmt:
			store(n.X)
		case *ast.ExprStmt:
			for _, name := range []string{"delete", "clear"} {
				if call, ok := builtin(n.X, name); ok {
					store(call.Args[0])
				}
			}
		}
		return true
	})
	return writes
}

// unread returns every recorded field no code reads, sorted by file and
// line.
func (c *fieldCensus) unread() []*censusField {
	var out []*censusField
	for key, fld := range c.fields {
		if !c.read[key] {
			out = append(out, fld)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// TestEveryFieldRead fails on any struct field of the module's or
// bench/'s non-test code that no non-test code reads, except those in
// fieldAllowlist. A field nothing reads is state to delete, with the
// code that writes it.
func TestEveryFieldRead(t *testing.T) {
	pkgs, err := censusPackages()
	if err != nil {
		t.Fatal(err)
	}
	c := newFieldCensus()
	for _, pkg := range pkgs {
		c.add(pkg)
	}
	unread := make(map[string]bool)
	for _, fld := range c.unread() {
		unread[fld.key] = true
		if _, ok := fieldAllowlist[fld.key]; !ok {
			t.Errorf("%s is read by no program", relPath(fld.String()))
		}
	}
	declared := make(map[string]bool)
	for _, fld := range c.fields {
		declared[fld.key] = true
	}
	for key := range fieldAllowlist {
		switch {
		case !declared[key]:
			t.Errorf("fieldAllowlist names %s, which no loaded package declares", key)
		case !unread[key]:
			t.Errorf("fieldAllowlist names %s, which a program reads", key)
		}
	}
}

// TestFieldCensusFixture runs the census over testdata/fields, which
// declares one field for each way of only writing it and one for each
// way of reading it: the census must flag exactly the write-only ones.
func TestFieldCensusFixture(t *testing.T) {
	pkg, err := framework.LoadFixture(filepath.Join("testdata", "fields"), "fixture/fields")
	if err != nil {
		t.Fatal(err)
	}
	c := newFieldCensus()
	c.add(pkg)
	file := filepath.Join("testdata", "fields", "main.go")
	want := []string{
		file + ":10: fixture/fields.counters.assigned",
		file + ":11: fixture/fields.counters.added",
		file + ":12: fixture/fields.counters.stored",
		file + ":13: fixture/fields.counters.appended",
	}
	var got []string
	for _, fld := range c.unread() {
		got = append(got, fld.String())
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("census of the fixture =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
