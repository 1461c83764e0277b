package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one fully loaded target: syntax plus type information.
type Package struct {
	// Path is the import path diagnostics and scope decisions key on.
	Path string
	Fset *token.FileSet
	// Files holds the non-test source files in file-name order.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
}

// goList runs `go list -export -deps -json` on the patterns from dir and
// returns the decoded package stream. -export makes the go command write
// export data for every listed package (stdlib included) into the build
// cache, which is what lets the type checker resolve imports without any
// network or vendored dependencies.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter builds a types.Importer that resolves every import from
// the export-data files reported by go list. The "unsafe" package is
// handled internally by the gc importer.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// check parses and type-checks one package's files against the importer.
func check(fset *token.FileSet, imp types.Importer, path, dir string, fileNames []string) (*Package, error) {
	pkg := &Package{
		Path: path,
		Fset: fset,
		Info: newInfo(),
	}
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

func importPathOf(im *ast.ImportSpec) (string, error) {
	var s string
	_, err := fmt.Sscanf(im.Path.Value, "%q", &s)
	return s, err
}

// Load loads the packages matching the go-list patterns (resolved from
// dir; "" means the current directory) with full syntax and type
// information. Only the packages matching the patterns are returned;
// dependencies contribute export data but are not analyzed. Test files are
// excluded by construction (go list GoFiles), which matches the suite's
// "test files exempt" rule.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []listPkg
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := check(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadFixture loads a single directory of Go files that lives outside the
// module's package graph (an analysistest fixture under testdata). The
// files are parsed directly; their imports — stdlib or module-internal —
// are resolved by asking go list for export data, so fixtures may exercise
// real repo types. importPath becomes the fixture package's path, which is
// how fixtures opt into the analyzers' package-scope rules (see the scope
// package).
func LoadFixture(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var fileNames []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			fileNames = append(fileNames, e.Name())
		}
	}
	sort.Strings(fileNames)
	if len(fileNames) == 0 {
		return nil, fmt.Errorf("fixture %s: no Go files", dir)
	}

	// Pre-parse just to collect the import set for go list.
	fset := token.NewFileSet()
	importSet := make(map[string]bool)
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, im := range f.Imports {
			if p, err := importPathOf(im); err == nil && p != "unsafe" {
				importSet[p] = true
			}
		}
	}
	exports := make(map[string]string)
	if len(importSet) > 0 {
		paths := make([]string, 0, len(importSet))
		for p := range importSet {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		listed, err := goList(dir, paths)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	fset = token.NewFileSet()
	return check(fset, exportImporter(fset, exports), importPath, dir, fileNames)
}
