package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotPathAllocConfig parameterizes the hotpathalloc analyzer.
type HotPathAllocConfig struct {
	// Required lists the entry points of the hot path: the tagged
	// functions no other tagged function reaches, so this list is the
	// only thing that notices one losing its //ldlp:hotpath tag (an
	// interior function that loses its tag is still walked, untagged,
	// from the tagged function that reaches it). Untagging or deleting
	// an entry is a finding; so is an entry some other tagged function
	// reaches, which the closure check already covers.
	Required []string
	// Registrars maps a function that stores the function value it is
	// given (core.Stack.AddLayer) to the function that later calls it
	// (core.Stack.process). See Program.handlerEdges.
	Registrars map[string]string
}

// NewHotPathAlloc builds the hotpathalloc analyzer. Functions whose doc
// comment carries the //ldlp:hotpath directive must stay free of the
// allocation sources that would break the zero-allocs-per-op invariant:
// heap-escaping composite literals (&T{}, slice/map literals), make/new,
// unbounded append, interface boxing at call sites, closures, fmt, and
// string building. Arguments to panic() are exempt — a panicking path
// has already left the hot path.
//
// The check is transitive: a tagged function's entire static call
// closure (resolved edges plus the handlers its Registrars were given)
// must be allocation-free. Reaching a function that allocates is
// reported at the hot root's call site with the full chain; reaching a
// //ldlp:coldpath function stops the walk — the directive is the whole
// declaration, and adding one shows up in the diff of the function it
// excuses. Callees outside the module (stdlib, export data only) are not
// traversed — the module's own tagged surface calls the standard library
// only through the vetted leaf helpers.
func NewHotPathAlloc(cfg HotPathAllocConfig) *Analyzer {
	a := &Analyzer{
		Name: "hotpathalloc",
		Doc:  "//ldlp:hotpath functions and their entire call closure must not allocate (composites, boxing, closures, fmt, unbounded append)",
	}
	// Per Program: every tagged function's closure, and for each function
	// in one, a tagged function (other than itself) whose closure it is in.
	var closures map[string]map[string]pathStep
	var coveredBy map[string]string
	var closuresFor *Program
	a.Run = func(pass *Pass) error {
		if pass.Prog != closuresFor {
			closures, coveredBy = hotClosures(pass.Prog, pass.Prog.handlerEdges(cfg.Registrars))
			closuresFor = pass.Prog
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				qname := FuncQName(pass.PkgPath, fd)
				tagged := HasDirective(fd.Doc, "//ldlp:hotpath")
				if MatchQName(qname, cfg.Required) {
					if !tagged {
						pass.Reportf(fd.Name.Pos(), "%s is a declared hot-path entry point and must carry //ldlp:hotpath", qname)
					}
					if by := coveredBy[qname]; by != "" {
						pass.Reportf(fd.Name.Pos(), "%s is redundant in the lint config's Required list: covered by %s, whose closure check reaches it", qname, shortQName(by))
					}
				}
				if tagged && HasDirective(fd.Doc, "//ldlp:coldpath") {
					pass.Reportf(fd.Name.Pos(), "%s carries both //ldlp:hotpath and //ldlp:coldpath; pick one", qname)
				}
				if tagged && fd.Body != nil {
					checkHotBody(pass, fd)
					checkHotClosure(pass, closures[qname])
				}
			}
		}
		pass.reportUndeclared("hot-path function", cfg.Required...)
		pass.reportUndeclaredRegistrars(cfg.Registrars)
		return nil
	}
	return a
}

// hotClosures walks the static call closure of every //ldlp:hotpath
// function. A walk records but does not enter a callee that is itself
// tagged //ldlp:hotpath — its own closure check covers it — or
// //ldlp:coldpath, which is exactly what makes that tag an escape hatch.
// coveredBy maps each function a walk recorded to the first tagged root
// (in name order) that reached it.
func hotClosures(prog *Program, handlers map[string][]string) (closures map[string]map[string]pathStep, coveredBy map[string]string) {
	closures = map[string]map[string]pathStep{}
	coveredBy = map[string]string{}
	tagged := func(pf *ProgFunc) bool { return pf.HotPath || pf.ColdPath }
	var roots []string
	for q, pf := range prog.Funcs {
		if pf.HotPath {
			roots = append(roots, q)
		}
	}
	sort.Strings(roots)
	for _, root := range roots {
		closures[root] = prog.reachFrom([]string{root}, handlers, tagged)
		for q := range closures[root] {
			if _, ok := coveredBy[q]; !ok && q != root {
				coveredBy[q] = root
			}
		}
	}
	return closures, coveredBy
}

// checkHotClosure reports every untagged function in one tagged root's
// closure that allocates, at the call site inside the root's body that
// began the path to it.
func checkHotClosure(pass *Pass, closure map[string]pathStep) {
	prog := pass.Prog
	for q := range closure {
		pf := prog.Funcs[q]
		if pf.HotPath || pf.ColdPath || len(pf.Allocs) == 0 {
			continue
		}
		chain := chainTo(closure, q)
		fnd := pf.Allocs[0]
		more := ""
		if n := len(pf.Allocs) - 1; n > 0 {
			more = fmt.Sprintf(" (+%d more)", n)
		}
		pass.ReportChain(closure[chain[1]].edge.Pos, chain,
			"hot path reaches an allocation in %s (chain: %s): %s at %s%s; tag the cold step //ldlp:coldpath if this path is intentionally cold",
			shortQName(q), formatChain(chain), fnd.msg, prog.Fset.Position(fnd.pos), more)
	}
}

// qnamePkg extracts the package path from a qualified function name
// ("ldlp/internal/mbuf.PoolShard.get" → "ldlp/internal/mbuf").
func qnamePkg(qname string) string {
	base := strings.LastIndex(qname, "/") + 1
	if dot := strings.Index(qname[base:], "."); dot >= 0 {
		return qname[:base+dot]
	}
	return qname
}

// posRange is a half-open source interval used to exempt subtrees.
type posRange struct{ from, to token.Pos }

func inRanges(p token.Pos, rs []posRange) bool {
	for _, r := range rs {
		if p > r.from && p < r.to {
			return true
		}
	}
	return false
}

// allocFinding is one allocation source inside a function body, as
// recorded in the per-function summary.
type allocFinding struct {
	pos token.Pos
	msg string
}

// checkHotBody reports every allocation source in one tagged function.
func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	for _, fnd := range allocScan(pass.TypesInfo, fd) {
		pass.Reportf(fnd.pos, "%s", fnd.msg)
	}
}

// allocScan finds every allocation source in one function body under
// the hotpathalloc rules. It is both the intraprocedural check for
// tagged functions and the allocates-on-some-path summary producer for
// the whole-program store.
func allocScan(info *types.Info, fd *ast.FuncDecl) []allocFinding {
	var out []allocFinding
	emit := func(pos token.Pos, format string, args ...any) {
		out = append(out, allocFinding{pos: pos, msg: fmt.Sprintf(format, args...)})
	}

	// Pass 0: collect exemption ranges and allocation-free slice vars.
	var panicRanges, closureRanges []posRange
	addrComposites := map[*ast.CompositeLit]bool{}
	okSlices := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(info, x) {
				for _, arg := range x.Args {
					panicRanges = append(panicRanges, posRange{arg.Pos() - 1, arg.End() + 1})
				}
			}
		case *ast.FuncLit:
			closureRanges = append(closureRanges, posRange{x.Body.Lbrace, x.Body.Rbrace + 1})
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					addrComposites[cl] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				if _, ok := ast.Unparen(rhs).(*ast.SliceExpr); !ok {
					continue
				}
				if id, ok := x.Lhs[i].(*ast.Ident); ok {
					if v, ok := objVar(info, id); ok {
						okSlices[v] = true // e.g. keep := q[:0] — reuses q's backing array
					}
				}
			}
		}
		return true
	})
	exempt := func(p token.Pos) bool {
		return inRanges(p, panicRanges) || inRanges(p, closureRanges)
	}

	// Pass 1: collect findings.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil || exempt(n.Pos()) {
			return true
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			emit(x.Pos(), "function literal on the hot path allocates a closure")
		case *ast.CompositeLit:
			t := info.TypeOf(x)
			if addrComposites[x] {
				emit(x.Pos(), "&%s composite literal escapes to the heap on the hot path", typeLabel(t))
			} else if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					emit(x.Pos(), "%s literal allocates on the hot path", typeLabel(t))
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if t := info.TypeOf(x); t != nil && isString(t) {
					emit(x.Pos(), "string concatenation allocates on the hot path")
				}
			}
		case *ast.CallExpr:
			scanAllocCall(info, x, okSlices, emit)
		}
		return true
	})
	return out
}

// scanAllocCall applies the per-call rules: make/new, unbounded append,
// fmt, allocating conversions, and interface boxing.
func scanAllocCall(info *types.Info, call *ast.CallExpr, okSlices map[*types.Var]bool, emit func(token.Pos, string, ...any)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				if t := info.TypeOf(call); t != nil {
					switch t.Underlying().(type) {
					case *types.Slice, *types.Map, *types.Chan:
						emit(call.Pos(), "make(%s) allocates on the hot path", typeLabel(t))
					}
				}
			case "new":
				emit(call.Pos(), "new(T) allocates on the hot path")
			case "append":
				if len(call.Args) > 0 && !appendIsBounded(info, call.Args[0], okSlices) {
					emit(call.Pos(), "append may grow its backing array on the hot path")
				}
			}
			return
		}
	}

	// Conversion, not a call?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		to := tv.Type.Underlying()
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			_, toSlice := to.(*types.Slice)
			if (toSlice && from != nil && isString(from)) ||
				(isString(tv.Type) && from != nil && isByteOrRuneSlice(from)) {
				emit(call.Pos(), "string/slice conversion copies and allocates on the hot path")
			}
		}
		return
	}

	if qname, ok := CalleeQName(info, call); ok && strings.HasPrefix(qname, "fmt.") {
		emit(call.Pos(), "%s on the hot path allocates (and formats reflectively)", qname)
		return
	}

	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		if t := info.TypeOf(call.Fun); t != nil {
			sig, ok = t.Underlying().(*types.Signature)
		}
		if !ok {
			return
		}
	}
	if call.Ellipsis.IsValid() {
		return
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i)
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || boxFree(at) {
			continue
		}
		emit(arg.Pos(), "argument boxes %s into an interface (allocates on the hot path)", typeLabel(at))
	}
}

// appendIsBounded reports whether the append target provably reuses an
// existing backing array: a re-slice expression (q[:0]) or a variable
// initialized from one.
func appendIsBounded(info *types.Info, arg ast.Expr, okSlices map[*types.Var]bool) bool {
	arg = ast.Unparen(arg)
	if _, ok := arg.(*ast.SliceExpr); ok {
		return true
	}
	if id, ok := arg.(*ast.Ident); ok {
		if v, isVar := objVar(info, id); isVar {
			return okSlices[v]
		}
	}
	return false
}

func objVar(info *types.Info, id *ast.Ident) (*types.Var, bool) {
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	return v, ok
}

// paramTypeAt resolves the static parameter type for argument i,
// expanding the variadic tail.
func paramTypeAt(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params == nil {
		return nil
	}
	n := params.Len()
	if sig.Variadic() && i >= n-1 {
		if n == 0 {
			return nil
		}
		if sl, ok := params.At(n - 1).Type().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return params.At(i).Type()
}

// boxFree reports whether a value of type t converts to an interface
// without allocating: pointers and pointer-shaped types, interfaces,
// and untyped nil.
func boxFree(t types.Type) bool {
	if _, isParam := t.(*types.TypeParam); isParam {
		return true // instantiation-dependent; give the benefit of the doubt
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func typeLabel(t types.Type) string {
	if t == nil {
		return "value"
	}
	s := t.String()
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}
