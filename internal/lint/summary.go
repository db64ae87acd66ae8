package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Interprocedural mbuf ownership facts. For every declared function the
// store classifies each mbuf-typed parameter (receiver first, at
// position 0) as either
//
//   - consumes: ownership may leave the caller through this parameter —
//     the body frees it, stores it (field, global, slice, map, channel,
//     composite, closure capture), returns it, takes its address,
//     aliases its chain, or forwards it to a callee that consumes (or
//     one the module cannot see, which must be assumed to); or
//   - borrows: the body provably only inspects or mutates the chain in
//     place — every use, transitively through callees, keeps ownership
//     with the caller.
//
// Results are additionally classified returns-owned when a function
// hands a fresh or re-rooted chain back to its caller (a configured
// allocator, a wrapper around one, or Prepend-style return of a
// consumed parameter).
//
// Facts are computed bottom-up over the call graph's strongly connected
// components: callees before callers, iterating to fixpoint inside a
// cycle. The lattice is monotone — a parameter starts optimistic
// (borrows) and can only move to consumes — so the fixpoint is finite
// and order-independent.

// useKind classifies how a statement or expression uses a tracked mbuf
// variable.
type useKind int

const (
	useNone    useKind = iota // variable not involved
	useBorrow                 // inspected or mutated in place; ownership retained
	useConsume                // ownership leaves through this use
)

func (k useKind) max(o useKind) useKind {
	if o > k {
		return o
	}
	return k
}

// mbufFacts is the ownership summary of one function.
type mbufFacts struct {
	hasRecv bool
	// mbufParam marks which positions (receiver at 0 when hasRecv) are
	// mbuf-typed pointers.
	mbufParam []bool
	// consumes is the per-position verdict; false for an mbuf position
	// means proven borrow-only.
	consumes []bool
	// borrowees records, for borrow-only positions, the callees the
	// parameter is forwarded to — the breadcrumb leak diagnostics print
	// as the interprocedural path.
	borrowees [][]string
	// returnsOwned marks functions whose result carries ownership back
	// to the caller.
	returnsOwned bool
}

// paramVars returns the receiver (if any) and parameter variables of a
// declared function, in summary position order. Unnamed or blank
// positions yield nil — they cannot be used, so they are trivially
// borrow-only.
func paramVars(info *types.Info, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				out = append(out, nil)
				continue
			}
			for _, name := range field.Names {
				if name.Name == "_" {
					out = append(out, nil)
					continue
				}
				v, _ := info.Defs[name].(*types.Var)
				out = append(out, v)
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)
	return out
}

// isMbufPtr reports whether t is a pointer to one of the configured
// mbuf chain types.
func isMbufPtr(t types.Type, mbufTypes []string) bool {
	if t == nil {
		return false
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	q := namedTypeQName(ptr.Elem())
	return q != "" && MatchQName(q, mbufTypes)
}

// mbufSummaries computes (and memoizes on the Program) the ownership
// facts for every declared function.
func (p *Program) mbufSummaries(cfg MbufOwnConfig) map[string]*mbufFacts {
	if p.mbufFacts != nil {
		return p.mbufFacts
	}
	facts := map[string]*mbufFacts{}
	for q, pf := range p.Funcs {
		vars := paramVars(pf.Pkg.Info, pf.Decl)
		f := &mbufFacts{
			hasRecv:   pf.Decl.Recv != nil && len(pf.Decl.Recv.List) > 0,
			mbufParam: make([]bool, len(vars)),
			consumes:  make([]bool, len(vars)),
			borrowees: make([][]string, len(vars)),
		}
		for i, v := range vars {
			if v != nil && isMbufPtr(v.Type(), cfg.MbufTypes) {
				f.mbufParam[i] = true
			}
		}
		facts[q] = f
	}
	env := &ownEnv{cfg: cfg, facts: facts}
	for _, scc := range p.sccOrder() {
		for changed := true; changed; {
			changed = false
			for _, q := range scc {
				if mbufTransfer(p.Funcs[q], env) {
					changed = true
				}
			}
		}
	}
	p.mbufFacts = facts
	return facts
}

// mbufTransfer re-evaluates one function against the current facts and
// reports whether anything changed.
func mbufTransfer(pf *ProgFunc, env *ownEnv) bool {
	f := env.facts[pf.QName]
	vars := paramVars(pf.Pkg.Info, pf.Decl)
	changed := false
	for i, v := range vars {
		if v == nil || !f.mbufParam[i] || f.consumes[i] {
			continue
		}
		kind, borrowees := useOfVar(pf.Pkg.Info, pf.Decl.Body, v, env)
		if kind == useConsume {
			f.consumes[i] = true
			f.borrowees[i] = nil
			changed = true
		} else {
			f.borrowees[i] = borrowees
		}
	}
	if !f.returnsOwned && returnsOwnedChain(pf, env, vars) {
		f.returnsOwned = true
		changed = true
	}
	return changed
}

// returnsOwnedChain reports whether some return statement hands back an
// owned chain: a configured allocator call, a call to a returns-owned
// function, or a Prepend-style return of one of the function's own mbuf
// parameters.
func returnsOwnedChain(pf *ProgFunc, env *ownEnv, vars []*types.Var) bool {
	info := pf.Pkg.Info
	owns := false
	ast.Inspect(pf.Decl.Body, func(n ast.Node) bool {
		if owns {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			switch e := ast.Unparen(res).(type) {
			case *ast.Ident:
				for _, v := range vars {
					if v != nil && info.Uses[e] == v && isMbufPtr(v.Type(), env.cfg.MbufTypes) {
						owns = true
					}
				}
			case *ast.CallExpr:
				if q, ok := CalleeQName(info, e); ok {
					if MatchQName(q, env.cfg.AllocFns) {
						owns = true
					} else if cf := env.facts[q]; cf != nil && cf.returnsOwned {
						owns = true
					}
				}
			}
		}
		return true
	})
	return owns
}

// ownEnv bundles what the use classifier needs.
type ownEnv struct {
	cfg   MbufOwnConfig
	facts map[string]*mbufFacts
}

// identIs reports whether e is (modulo parens) an identifier resolving
// to v.
func identIs(info *types.Info, e ast.Expr, v *types.Var) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && (info.Uses[id] == v || info.Defs[id] == v)
}

// useOfVar classifies every use of v under node n, merging to the most
// severe kind, and collects the callees v is forwarded to as a borrow.
// It is the one classifier shared by the summary computation (v is a
// parameter, n the whole body) and the leak tracker (v is a tracked
// allocation, n one statement).
func useOfVar(info *types.Info, n ast.Node, v *types.Var, env *ownEnv) (useKind, []string) {
	if n == nil {
		return useNone, nil
	}
	kind := useNone
	var borrowees []string
	merge := func(k useKind, b []string) {
		kind = kind.max(k)
		borrowees = append(borrowees, b...)
	}
	recurse := func(children ...ast.Node) {
		for _, c := range children {
			if c == nil {
				continue
			}
			merge(useOfVar(info, c, v, env))
		}
	}

	switch x := n.(type) {
	case *ast.Ident:
		if info.Uses[x] == v {
			// A bare use in a context no rule above recognized: the value
			// itself flows somewhere we cannot follow.
			return useConsume, nil
		}
		return useNone, nil
	case *ast.ParenExpr:
		recurse(x.X)
	case *ast.SelectorExpr:
		if identIs(info, x.X, v) {
			if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				if fv, ok := s.Obj().(*types.Var); ok && isMbufPtr(fv.Type(), env.cfg.MbufTypes) {
					return useConsume, nil // m.next: aliases the chain
				}
				return useBorrow, nil // plain field read
			}
			return useConsume, nil // method value escapes with its receiver
		}
		recurse(x.X)
	case *ast.BinaryExpr:
		// Comparisons only inspect; m == nil / m == other retain
		// ownership.
		isCmp := x.Op == token.EQL || x.Op == token.NEQ ||
			x.Op == token.LSS || x.Op == token.GTR || x.Op == token.LEQ || x.Op == token.GEQ
		for _, side := range []ast.Expr{x.X, x.Y} {
			if isCmp && identIs(info, side, v) {
				merge(useBorrow, nil)
			} else {
				recurse(side)
			}
		}
	case *ast.CallExpr:
		return callUseOfVar(info, x, v, env)
	case *ast.UnaryExpr:
		if x.Op == token.AND && usesVar(info, x.X, v) {
			return useConsume, nil
		}
		recurse(x.X)
	case *ast.StarExpr:
		recurse(x.X)
	case *ast.IndexExpr:
		recurse(x.X, x.Index)
	case *ast.IndexListExpr:
		recurse(x.X)
		for _, idx := range x.Indices {
			recurse(idx)
		}
	case *ast.SliceExpr:
		recurse(x.X, x.Low, x.High, x.Max)
	case *ast.KeyValueExpr:
		recurse(x.Key, x.Value)
	case *ast.CompositeLit:
		if usesVar(info, x, v) {
			return useConsume, nil // stored into a composite value
		}
	case *ast.FuncLit:
		if usesVar(info, x, v) {
			return useConsume, nil // captured; the closure may outlive us
		}
	case *ast.TypeAssertExpr:
		recurse(x.X)

	case *ast.AssignStmt:
		// `_ = m` keeps the typechecker quiet but moves nothing.
		if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
			if id, ok := x.Lhs[0].(*ast.Ident); ok && id.Name == "_" && identIs(info, x.Rhs[0], v) {
				return useNone, nil
			}
		}
		for _, lhs := range x.Lhs {
			if identIs(info, lhs, v) {
				continue // writing TO v is not a use of the chain
			}
			if base, ok := selectorBase(lhs); ok && identIs(info, base, v) {
				merge(useBorrow, nil) // m.off = 0, m.data[i] = b: in-place mutation
				continue
			}
			recurse(lhs)
		}
		for _, rhs := range x.Rhs {
			recurse(rhs)
		}
	case *ast.ReturnStmt:
		for _, res := range x.Results {
			recurse(res)
		}
	case *ast.ExprStmt:
		recurse(x.X)
	case *ast.SendStmt:
		recurse(x.Chan, x.Value)
	case *ast.IncDecStmt:
		if base, ok := selectorBase(x.X); ok && identIs(info, base, v) {
			return useBorrow, nil // m.refs++ style in-place mutation
		}
		recurse(x.X)
	case *ast.IfStmt:
		recurse(x.Init, x.Cond, x.Body, x.Else)
	case *ast.ForStmt:
		recurse(x.Init, x.Cond, x.Post, x.Body)
	case *ast.RangeStmt:
		recurse(x.Key, x.Value, x.X, x.Body)
	case *ast.SwitchStmt:
		recurse(x.Init, x.Tag, x.Body)
	case *ast.TypeSwitchStmt:
		recurse(x.Init, x.Assign, x.Body)
	case *ast.SelectStmt:
		recurse(x.Body)
	case *ast.BlockStmt:
		for _, st := range x.List {
			recurse(st)
		}
	case *ast.CaseClause:
		for _, e := range x.List {
			recurse(e)
		}
		for _, st := range x.Body {
			recurse(st)
		}
	case *ast.CommClause:
		recurse(x.Comm)
		for _, st := range x.Body {
			recurse(st)
		}
	case *ast.LabeledStmt:
		recurse(x.Stmt)
	case *ast.DeferStmt:
		recurse(x.Call)
	case *ast.GoStmt:
		recurse(x.Call)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						recurse(val)
					}
				}
			}
		}
	default:
		if node, ok := n.(ast.Node); ok && usesVar(info, node, v) {
			return useConsume, nil // unmodeled construct touching v: assume the worst
		}
	}
	return kind, borrowees
}

// selectorBase unwraps selector/index chains to their root expression:
// m.data[i] -> m, m.off -> m.
func selectorBase(e ast.Expr) (ast.Expr, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return x, true
		default:
			return nil, false
		}
	}
}

// callUseOfVar classifies v's role in one call: consulting the callee's
// summary when v is passed directly, recursing into compound arguments
// otherwise. Unknown callees (stdlib, function values) consume — the
// module cannot see their bodies, so ownership must be assumed gone,
// which preserves the tracker's old call-means-hand-off behavior
// exactly where no proof is available.
func callUseOfVar(info *types.Info, call *ast.CallExpr, v *types.Var, env *ownEnv) (useKind, []string) {
	kind := useNone
	var borrowees []string
	merge := func(k useKind, b []string) {
		if k > kind {
			kind = k
		}
		borrowees = append(borrowees, b...)
	}

	// Builtins: len/cap only look; append and the rest take the value.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap":
				for _, arg := range call.Args {
					if identIs(info, arg, v) {
						merge(useBorrow, nil)
					} else {
						merge(useOfVar(info, arg, v, env))
					}
				}
			default:
				if usesVar(info, call, v) {
					return useConsume, nil
				}
			}
			return kind, borrowees
		}
	}
	// Conversions alias the value under a new type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if usesVar(info, call, v) {
			return useConsume, nil
		}
		return useNone, nil
	}

	qname, resolved := CalleeQName(info, call)
	var cf *mbufFacts
	if resolved {
		cf = env.facts[qname]
	}
	consultPos := func(pos int) {
		if cf == nil {
			merge(useConsume, nil) // no summary: assume hand-off
			return
		}
		if pos < len(cf.consumes) && cf.mbufParam[pos] && !cf.consumes[pos] {
			merge(useBorrow, []string{qname})
			return
		}
		merge(useConsume, nil)
	}

	shift := 0
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			// Receiver occupies summary position 0; explicit args shift.
			shift = 1
			if identIs(info, sel.X, v) {
				consultPos(0)
			} else {
				merge(useOfVar(info, sel.X, v, env))
			}
		}
	}
	for i, arg := range call.Args {
		if identIs(info, arg, v) {
			if call.Ellipsis.IsValid() || (cf != nil && i+shift >= len(cf.consumes)) {
				merge(useConsume, nil) // variadic tail: no per-position fact
				continue
			}
			consultPos(i + shift)
			continue
		}
		merge(useOfVar(info, arg, v, env))
	}
	// A call through a function value that mentions v anywhere else
	// (e.g. the callee expression itself) is beyond the summary store.
	if kind == useNone && usesVar(info, call, v) {
		return useConsume, nil
	}
	return kind, borrowees
}

// borrowLabel renders one borrow-only callee for a diagnostic,
// extending it with its own borrow forwarding so multi-hop paths read
// as "reader -> inner". Depth is capped: mutual borrow recursion would
// otherwise loop, and past a few hops the breadcrumb stops helping.
func borrowLabel(qname string, facts map[string]*mbufFacts) string {
	label := shortQName(qname)
	for depth := 0; depth < 4; depth++ {
		f := facts[qname]
		if f == nil {
			break
		}
		next := ""
		for _, bs := range f.borrowees {
			if len(bs) > 0 {
				next = bs[0]
				break
			}
		}
		if next == "" {
			break
		}
		label += " -> " + shortQName(next)
		qname = next
	}
	return label
}
