package lockcheck

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/analysis/framework"
)

// TestLockWalk pins the lockset walk one control shape at a time: each
// want lists a function's HeldSites as "line op locks", a lock written
// root@line-acquired.
func TestLockWalk(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "walk"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := framework.LoadFixture(dir, "fixture/walk")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	pass := &framework.Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
	bodies := make(map[string]*ast.BlockStmt)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				bodies[fn.Name.Name] = fn.Body
			}
		}
	}
	for _, c := range []struct{ name, want string }{
		{"StraightLine", "11 channel send walk.mu@10"},
		{"IfElse", "22 channel send walk.mu@18"},
		{"IfWithoutElse", "30 channel send walk.mu@26"},
		{"IfBothArmsReturn", ""},
		{"JoinFirstPosition", "52 channel send walk.mu@48"},
		{"ForLoop", "57 channel send walk.mu@58"},
		{"ForBreakContinue", "66 channel send walk.mu@67"},
		{"InfiniteLoop", "82 channel send walk.mu@81"},
		{"LabeledBreakContinue", "94 channel send walk.mu@97; 106 channel send walk.mu@97,walk.nu@101"},
		{"Range", "114 range over channel walk.mu@113"},
		{"SwitchFallthrough", "128 channel send walk.mu@125"},
		{"Select", "138 select without default walk.mu@137"},
		{"EmptySelect", "150 select without default walk.mu@149"},
		{"Defer", "161 channel send walk.mu@157"},
		{"Goto", "166 channel send walk.mu@169"},
		{"GotoForward", "181 channel send walk.mu@176"},
		{"Panic", "187 call walk.mu@186"},
		{"UnreachableAfterReturn", ""},
		{"FuncLit", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			body := bodies[c.name]
			if body == nil {
				t.Fatalf("no function %s in the fixture", c.name)
			}
			sites, _ := lockPre(pass, body)
			var got []string
			for _, site := range sites {
				op := site.Op
				if op == "" {
					op = "call"
				}
				var held []string
				for _, h := range site.Held {
					held = append(held, fmt.Sprintf("%s@%d", h.Root, pkg.Fset.Position(h.Acquired).Line))
				}
				got = append(got, fmt.Sprintf("%d %s %s", pkg.Fset.Position(site.Node.Pos()).Line, op, strings.Join(held, ",")))
			}
			if strings.Join(got, "; ") != c.want {
				t.Errorf("HeldSites = %q, want %q", strings.Join(got, "; "), c.want)
			}
		})
	}
}
