// Package lint is the repo's custom static-analysis suite: seven
// analyzers (mbufown, hotpathalloc, quiescence, atomiccounter,
// lockorder, shardaffinity, determinism) that mechanically enforce the
// hot-path invariants the soak suites otherwise catch only at runtime —
// balanced mbuf ownership, the zero-allocation receive path, pump-only
// code unreachable from the shard workers, atomics-only counter access,
// the declared lock order, per-connection shard ownership of transport
// state, and per-seed replay determinism.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Reportf, testdata fixtures with `// want` expectations) but is built
// entirely on the standard library: packages are type-checked against
// compiler export data produced by `go list -export` (load.go), so the
// module keeps its stdlib-only dependency story even for tooling. If
// x/tools ever becomes available, each analyzer's Run is shaped to port
// to a vet-style multichecker mechanically.
//
// Findings are suppressed one statement at a time with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line above. The reason is mandatory: a
// bare ignore is itself reported (by the pseudo-analyzer
// "lintignore"), so every suppression in the tree documents why the
// invariant does not apply.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check, run once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:ignore
	// directives.
	Name string
	// Doc is a one-line description shown by `ldlpvet -list`.
	Doc string
	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer, plus the diagnostic sink and the whole-program view.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info
	// Prog is the module-wide call graph and summary store, built once
	// per Run over every loaded package. Interprocedural analyzers
	// traverse it; intraprocedural ones may ignore it.
	Prog *Program

	diags *[]Diagnostic
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
// Chain, when set, is the interprocedural call path (qualified names,
// root first) that connects the reported position to the underlying
// fact.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Chain    []string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportChain records a finding at pos carrying an interprocedural call
// chain (qualified names, root first).
func (p *Pass) ReportChain(pos token.Pos, chain []string, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Chain:    append([]string(nil), chain...),
	})
}

// reportUndeclared is the stale-config guard every configured name list
// shares: a qualified function name that belongs to the package under
// analysis but is declared nowhere in it is a finding on the package
// clause. Without it a rename or deletion silently empties a root set,
// an edge or a sink list, and the proof built on that list goes vacuous.
// what says which list named the function.
func (p *Pass) reportUndeclared(what string, names ...string) {
	for _, name := range names {
		if qnamePkg(name) == p.PkgPath && p.Prog.Funcs[name] == nil {
			p.Reportf(p.Files[0].Name.Pos(),
				"%s %s is required by the lint config but no longer declared (regression guard)", what, name)
		}
	}
}

// reportUndeclaredRegistrars applies reportUndeclared to both ends of
// every Registrars entry.
func (p *Pass) reportUndeclaredRegistrars(registrars map[string]string) {
	for registrar, invoker := range registrars {
		p.reportUndeclared("registrar", registrar)
		p.reportUndeclared("registrar's invoker", invoker)
	}
}

// IsTestFile reports whether the file holding pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool { return isTestFile(p.Fset, pos) }

func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// ignoreRe matches a lint suppression. Group 1 is the analyzer name,
// group 2 the (mandatory) reason.
var ignoreRe = regexp.MustCompile(`^//lint:ignore(?:\s+(\S+))?(?:\s+(\S.*))?$`)

// ignoreSites maps "filename:line" to the analyzer names suppressed at
// that line.
type ignoreSites map[string]map[string]bool

// collectIgnores scans a file's comments for //lint:ignore directives,
// recording well-formed ones in sites and reporting malformed ones
// (missing analyzer name or empty reason) as diagnostics.
func collectIgnores(fset *token.FileSet, files []*ast.File, sites ignoreSites, diags *[]Diagnostic) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:ignore") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil || m[1] == "" || strings.TrimSpace(m[2]) == "" {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "lintignore",
						Message:  "malformed //lint:ignore: need an analyzer name and a non-empty reason",
					})
					continue
				}
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				if sites[key] == nil {
					sites[key] = map[string]bool{}
				}
				sites[key][m[1]] = true
			}
		}
	}
}

// suppressed reports whether d is covered by an ignore directive on its
// own line or the line above.
func suppressed(d Diagnostic, sites ignoreSites) bool {
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if names := sites[fmt.Sprintf("%s:%d", d.Pos.Filename, line)]; names[d.Analyzer] {
			return true
		}
	}
	return false
}

// Run applies every analyzer to every package in order, filters
// findings through //lint:ignore directives, and returns the survivors
// sorted by position. Packages must be in dependency order (definers
// before users) so analyzers that accumulate cross-package facts — like
// atomiccounter's atomic-field registry — see definitions first.
//
// Before any analyzer runs, the whole-program call graph and summary
// store (Program) is built over every loaded package and handed to each
// Pass; the ignore directives are collected first so justified
// allocation sites drop out of the summaries.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	sites := ignoreSites{}
	for _, pkg := range pkgs {
		collectIgnores(fset, pkg.Files, sites, &diags)
	}
	prog := buildProgram(fset, pkgs, sites)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				PkgPath:   pkg.Path,
				TypesInfo: pkg.Info,
				Prog:      prog,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !suppressed(d, sites) {
			kept = append(kept, d)
		}
	}
	// Total order — filename, line, column, analyzer, message — so the
	// output is byte-stable run to run (golden tests and CI diffs rely
	// on it; map iteration anywhere upstream must not leak through).
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return kept, nil
}

// HasDirective reports whether a doc comment contains the given
// machine-readable directive line (e.g. "//ldlp:hotpath").
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// FuncQName names a declared function as "pkgpath.Name", or
// "pkgpath.Recv.Name" for methods (pointer and type parameters
// stripped).
func FuncQName(pkgPath string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkgPath + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.Ident:
			return pkgPath + "." + tt.Name + "." + fd.Name.Name
		default:
			return pkgPath + "." + fd.Name.Name
		}
	}
}

// qnameOfFunc names a resolved function object the same way FuncQName
// names its declaration.
func qnameOfFunc(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return fn.Name()
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Origin().Obj()
			if obj.Pkg() != nil {
				return obj.Pkg().Path() + "." + obj.Name() + "." + fn.Name()
			}
			return obj.Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// CalleeQName resolves a call's target to its qualified name. It
// returns ok=false for builtins, calls through plain function values,
// and unresolvable callees.
func CalleeQName(info *types.Info, call *ast.CallExpr) (string, bool) {
	fun := ast.Unparen(call.Fun)
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = f.X
			continue
		case *ast.IndexListExpr:
			fun = f.X
			continue
		}
		break
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	default:
		return "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	return qnameOfFunc(fn), true
}

// MatchQName reports whether qname matches any pattern. A pattern
// matches if it equals the qname or is a suffix beginning at a package
// path boundary ("mbuf.PoolShard.Get" matches
// "ldlp/internal/mbuf.PoolShard.Get").
func MatchQName(qname string, patterns []string) bool {
	for _, pat := range patterns {
		if qname == pat {
			return true
		}
		if strings.HasSuffix(qname, pat) && qname[len(qname)-len(pat)-1] == '/' {
			return true
		}
	}
	return false
}

// usesVar reports whether any identifier under n resolves to v.
func usesVar(info *types.Info, n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		if found {
			return false
		}
		if id, ok := nn.(*ast.Ident); ok && info.Uses[id] == v {
			found = true
		}
		return true
	})
	return found
}

// isPanicCall reports whether call invokes the predeclared panic.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}
