package lint

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"strings"
	"time"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path; external test packages get the
	// conventional "_test" suffix.
	Path  string
	Name  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listEntry mirrors the `go list -json` fields the loader consumes.
type listEntry struct {
	ImportPath   string
	Name         string
	Dir          string
	Standard     bool
	Export       string
	ForTest      string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
}

// LoadStats reports where load time went, for ldlpvet -v.
type LoadStats struct {
	// List is the time spent in `go list -export`.
	List time.Duration
	// Check is the time spent parsing and type-checking the target
	// packages from source.
	Check time.Duration
}

// Load type-checks the packages matched by patterns (run from dir,
// normally the module root) and returns them in dependency order,
// definers before users. In-package test files are merged into their
// package; external _test packages are returned as their own entries
// after all regular packages.
//
// Dependencies — stdlib and module packages alike — are resolved from
// compiler export data emitted by `go list -deps -test -export`, so the
// loader needs nothing beyond the standard library and the go tool.
func Load(dir string, patterns []string) ([]*Package, *token.FileSet, LoadStats, error) {
	var stats LoadStats
	start := time.Now()
	entries, err := goList(dir, append([]string{"-deps", "-test"}, patterns...))
	if err != nil {
		return nil, nil, stats, err
	}
	targets, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, stats, err
	}
	stats.List = time.Since(start)
	checkStart := time.Now()

	// exports: ordinary build of each dependency. testExports: the
	// package-under-test rebuilt with its in-package test files, which is
	// what an external _test package actually links against.
	exports := map[string]string{}
	testExports := map[string]string{}
	byPath := map[string]*listEntry{}
	for _, e := range entries {
		e := e
		if e.ForTest != "" {
			// "p [p.test]" is p rebuilt with its in-package test files;
			// "p_test [p.test]" (the external test package itself) is not.
			if strings.Split(e.ImportPath, " ")[0] == e.ForTest && e.Export != "" {
				testExports[e.ForTest] = e.Export
			}
			continue
		}
		if strings.HasSuffix(e.ImportPath, ".test") {
			continue
		}
		byPath[e.ImportPath] = e
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}

	fset := token.NewFileSet()
	baseImp := newExportImporter(fset, exports, nil)

	var ordered []string
	seen := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		if seen[path] {
			return
		}
		seen[path] = true
		e := byPath[path]
		if e == nil || e.Standard {
			return
		}
		for _, imp := range e.Imports {
			visit(imp)
		}
		ordered = append(ordered, path)
	}
	isTarget := map[string]bool{}
	for _, t := range targets {
		isTarget[t.ImportPath] = true
	}
	for _, t := range targets {
		visit(t.ImportPath)
	}

	var pkgs []*Package
	for _, path := range ordered {
		if !isTarget[path] {
			continue
		}
		e := byPath[path]
		files := append(append([]string{}, e.GoFiles...), e.TestGoFiles...)
		pkg, err := check(fset, path, e.Dir, files, baseImp)
		if err != nil {
			return nil, nil, stats, err
		}
		pkgs = append(pkgs, pkg)
	}
	for _, path := range ordered {
		e := byPath[path]
		if !isTarget[path] || e == nil || len(e.XTestGoFiles) == 0 {
			continue
		}
		// The external test package imports the package under test as
		// rebuilt for the test binary (in-package test files included).
		imp := newExportImporter(fset, exports, map[string]string{path: testExports[path]})
		pkg, err := check(fset, path+"_test", e.Dir, e.XTestGoFiles, imp)
		if err != nil {
			return nil, nil, stats, err
		}
		pkgs = append(pkgs, pkg)
	}
	stats.Check = time.Since(checkStart)
	return pkgs, fset, stats, nil
}

// LoadFixture type-checks the .go files of one testdata directory as a
// single package. Fixtures may import anything in the standard library
// whose export data fixtureStd lists.
func LoadFixture(dir string) (*Package, *token.FileSet, error) {
	exports, err := fixtureStd(dir)
	if err != nil {
		return nil, nil, err
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []string
	for _, de := range des {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".go") {
			files = append(files, de.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no .go files in %s", dir)
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports, nil)
	pkg, err := check(fset, filepath.Base(dir), dir, files, imp)
	if err != nil {
		return nil, nil, err
	}
	return pkg, fset, nil
}

// fixtureStd returns export-data paths for the stdlib packages fixtures
// are allowed to import.
func fixtureStd(dir string) (map[string]string, error) {
	entries, err := goList(dir, []string{"-deps",
		"errors", "fmt", "math/rand", "sort", "strings", "sync", "sync/atomic", "time"})
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	return exports, nil
}

// goList runs `go list -e -export -json=...` with the given extra args
// and decodes the JSON stream.
func goList(dir string, args []string) ([]*listEntry, error) {
	cmd := exec.Command("go", append([]string{"list", "-export",
		"-json=ImportPath,Name,Dir,Standard,Export,ForTest,GoFiles,TestGoFiles,XTestGoFiles,Imports"},
		args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var entries []*listEntry
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		entries = append(entries, &e)
	}
	return entries, nil
}

// exportImporter resolves imports from compiler export data, with an
// optional per-path override (used to substitute the test-variant build
// of a package under external test).
type exportImporter struct {
	gc types.Importer
}

func newExportImporter(fset *token.FileSet, exports, override map[string]string) *exportImporter {
	lookup := func(path string) (io.ReadCloser, error) {
		file := override[path]
		if file == "" {
			file = exports[path]
		}
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return &exportImporter{gc: importer.ForCompiler(fset, "gc", lookup)}
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return ei.gc.Import(path)
}

// check parses and type-checks one package from source, resolving every
// import through imp.
func check(fset *token.FileSet, path, dir string, fileNames []string, imp types.Importer) (*Package, error) {
	var asts []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, fset, asts, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", path, errors.Join(errs...))
	}
	return &Package{
		Path:  path,
		Name:  tpkg.Name(),
		Dir:   dir,
		Files: asts,
		Types: tpkg,
		Info:  info,
	}, nil
}
