package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// This file is the whole-program half of the suite: a static call graph
// over every loaded package plus a per-function summary store, built
// once per Run and shared by the interprocedural analyzers
// (hotpathalloc's transitive closure check, mbufown's consume/borrow
// classification, quiescence's worker-reachability proof).
//
// Resolution rules:
//
//   - Direct calls and method calls resolve through the type checker
//     (CalleeQName), so receiver types — including promoted methods —
//     name the declaring type.
//   - Generic instantiations resolve to their origin declaration:
//     flowtable.Table[fourTuple, *tcpPCB].Lookup and the fixture's
//     table[int, string].lookup are both edges to the one generic
//     method body. One mechanism, covered by the generic fixture,
//     replaces the earlier per-name special-casing.
//   - Calls through plain function values (the engine's emit closures,
//     layer handler fields) are statically unresolvable, but where the
//     value came from is not: a declared function or method value passed
//     to a registrar (core.Stack.AddLayer, SetSink) is an edge from the
//     function that later invokes it (handlerEdges). The config names
//     the registrar and its invoker; the handlers are read off the call
//     sites, so one registered tomorrow is in the graph tomorrow.
//   - Function literals are attributed to their enclosing declared
//     function: wherever the closure actually runs, the enclosing
//     function is the only place the graph can anchor it, and for
//     reachability an over-approximation is the safe direction.

// CallEdge is one resolved call site: the callee's qualified name and
// the position of the call expression.
type CallEdge struct {
	Callee string
	Pos    token.Pos
}

// ProgFunc is one declared function body and its summary facts.
type ProgFunc struct {
	QName string
	Decl  *ast.FuncDecl
	Pkg   *Package
	// Edges lists resolved static calls in source order.
	Edges []CallEdge
	// Allocs are the allocation sources in this body under the
	// hotpathalloc rules (composites, make/new, unbounded append,
	// boxing, closures, fmt, string building), minus any suppressed at
	// their own line with //lint:ignore hotpathalloc <reason>. A
	// non-empty list means "allocates on some path".
	Allocs []allocFinding
	// Acquires lists the qualified names of mutexes this body acquires
	// (m.Lock/RLock/TryLock on a resolvable target).
	Acquires []string
	// Directive tags from the doc comment.
	HotPath, ColdPath, Quiescent bool
}

// funcArg is one declared function or method value passed as an
// argument to a resolved callee: s.AddLayer("tcp", rx.tcpInput) records
// {Stack.AddLayer, rxPath.tcpInput}.
type funcArg struct{ callee, fn string }

// Program is the whole-program view handed to every Pass.
type Program struct {
	Fset  *token.FileSet
	Funcs map[string]*ProgFunc

	// funcArgs lists every function value handed to a call, in source
	// order; handlerEdges picks out the ones handed to a registrar.
	funcArgs []funcArg

	// mbuf ownership facts, computed lazily by the mbufown analyzer
	// (they need its config) and kept here.
	mbufFacts map[string]*mbufFacts
}

// buildProgram constructs the call graph and per-function summaries.
// sites carries the well-formed //lint:ignore directives so justified
// allocation sites drop out of the summaries (see ProgFunc.Allocs).
func buildProgram(fset *token.FileSet, pkgs []*Package, sites ignoreSites) *Program {
	prog := &Program{Fset: fset, Funcs: map[string]*ProgFunc{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			// A test's wiring is not the program's: a handler a _test.go
			// file registers is not a callee of the engine.
			inTest := isTestFile(fset, f.Pos())
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				pf := &ProgFunc{
					QName:     FuncQName(pkg.Path, fd),
					Decl:      fd,
					Pkg:       pkg,
					HotPath:   HasDirective(fd.Doc, "//ldlp:hotpath"),
					ColdPath:  HasDirective(fd.Doc, "//ldlp:coldpath"),
					Quiescent: HasDirective(fd.Doc, "//ldlp:quiescent"),
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if qname, ok := CalleeQName(pkg.Info, call); ok {
						pf.Edges = append(pf.Edges, CallEdge{Callee: qname, Pos: call.Pos()})
						for _, arg := range call.Args {
							if fn, ok := funcValueQName(pkg.Info, arg); ok && !inTest {
								prog.funcArgs = append(prog.funcArgs, funcArg{callee: qname, fn: fn})
							}
						}
					}
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						switch sel.Sel.Name {
						case "Lock", "RLock", "TryLock", "TryRLock":
							if q, _ := atomicTargetQName(pkg.Info, ast.Unparen(sel.X)); q != "" {
								pf.Acquires = append(pf.Acquires, q)
							}
						}
					}
					return true
				})
				for _, fnd := range allocScan(pkg.Info, fd) {
					if !allocSuppressed(fset, fnd, sites) {
						pf.Allocs = append(pf.Allocs, fnd)
					}
				}
				prog.Funcs[pf.QName] = pf
			}
		}
	}
	return prog
}

// allocSuppressed reports whether an allocation summary entry is
// justified at its own line (or the line above) with
// //lint:ignore hotpathalloc <reason>. Interprocedural reports are
// positioned at the hot root, so this is how a cold allocation inside
// an untagged callee is blessed once, where it happens, for every hot
// path that reaches it.
func allocSuppressed(fset *token.FileSet, fnd allocFinding, sites ignoreSites) bool {
	return suppressed(Diagnostic{Pos: fset.Position(fnd.pos), Analyzer: "hotpathalloc"}, sites)
}

// funcValueQName names the declared function or method an expression
// denotes when it is used as a value (f, pkg.F, x.method). Function
// literals are not values in this sense: they stay attributed to the
// function that encloses them.
func funcValueQName(info *types.Info, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return "", false
	}
	return qnameOfFunc(fn), true
}

// matching returns, sorted, the declared functions whose qualified name
// matches pattern (MatchQName suffix matching, so fixtures and the real
// module share config shapes).
func (p *Program) matching(pattern string) []string {
	var out []string
	for q := range p.Funcs {
		if MatchQName(q, []string{pattern}) {
			out = append(out, q)
		}
	}
	sort.Strings(out)
	return out
}

// handlerEdges derives the edges the resolver cannot see. registrars
// maps a registrar (a function that stores the function value it is
// given) to the function that later calls what was stored; every
// function value passed to the registrar anywhere in the program becomes
// a callee of that invoker. The result is concrete qname -> qnames, in
// registration order.
func (p *Program) handlerEdges(registrars map[string]string) map[string][]string {
	out := map[string][]string{}
	for registrar, invoker := range registrars {
		invokers := p.matching(invoker)
		for _, fa := range p.funcArgs {
			if MatchQName(fa.callee, []string{registrar}) {
				for _, q := range invokers {
					out[q] = append(out[q], fa.fn)
				}
			}
		}
	}
	return out
}

// callees returns pf's resolved edges followed by its handler edges,
// which have no call site and are positioned at pf's declaration.
func (p *Program) callees(pf *ProgFunc, handlers map[string][]string) []CallEdge {
	edges := slices.Clip(pf.Edges)
	for _, h := range handlers[pf.QName] {
		edges = append(edges, CallEdge{Callee: h, Pos: pf.Decl.Name.Pos()})
	}
	return edges
}

// pathStep is one hop of an interprocedural chain.
type pathStep struct {
	caller string
	edge   CallEdge
}

// reachFrom walks the graph breadth-first from the given roots
// (concrete qnames), following resolved edges plus the derived handler
// ones, and returns for every reached function the edge that first
// reached it (parent pointers for chain reconstruction). Roots themselves
// map to a zero step. A reached function for which stop (if non-nil)
// reports true is recorded but not entered.
func (p *Program) reachFrom(roots []string, handlers map[string][]string, stop func(*ProgFunc) bool) map[string]pathStep {
	reached := map[string]pathStep{}
	var queue []string
	for _, r := range roots {
		if _, ok := p.Funcs[r]; !ok {
			continue
		}
		if _, seen := reached[r]; seen {
			continue
		}
		reached[r] = pathStep{}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range p.callees(p.Funcs[cur], handlers) {
			if _, seen := reached[e.Callee]; seen {
				continue
			}
			pf, known := p.Funcs[e.Callee]
			if !known {
				continue // outside the module: not traversable
			}
			reached[e.Callee] = pathStep{caller: cur, edge: e}
			if stop == nil || !stop(pf) {
				queue = append(queue, e.Callee)
			}
		}
	}
	return reached
}

// chainTo reconstructs the call chain root -> ... -> target from
// reachFrom's parent pointers, as a list of qualified names.
func chainTo(reached map[string]pathStep, target string) []string {
	var rev []string
	for cur := target; cur != ""; {
		rev = append(rev, cur)
		step, ok := reached[cur]
		if !ok || step.caller == "" {
			break
		}
		cur = step.caller
	}
	chain := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		chain = append(chain, rev[i])
	}
	return chain
}

// shortQName strips the package path prefix for human-readable chains:
// "ldlp/internal/netstack.rxPath.tcpInput" -> "netstack.rxPath.tcpInput".
func shortQName(qname string) string {
	if i := strings.LastIndex(qname, "/"); i >= 0 {
		return qname[i+1:]
	}
	return qname
}

// formatChain renders a call chain for a diagnostic message.
func formatChain(chain []string) string {
	short := make([]string, len(chain))
	for i, q := range chain {
		short[i] = shortQName(q)
	}
	return strings.Join(short, " -> ")
}

// sccOrder returns the functions grouped into strongly connected
// components in reverse topological order (callees before callers), so
// bottom-up summary computation sees a callee's facts before its
// callers — and iterates to fixpoint only within a cycle. Tarjan's
// algorithm, iterative to keep deep recursion off the Go stack.
func (p *Program) sccOrder() [][]string {
	// Deterministic node order keeps summary iteration stable.
	nodes := make([]string, 0, len(p.Funcs))
	for q := range p.Funcs {
		nodes = append(nodes, q)
	}
	sort.Strings(nodes)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	type frame struct {
		node string
		ei   int
	}
	for _, start := range nodes {
		if _, seen := index[start]; seen {
			continue
		}
		work := []frame{{node: start}}
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(work) > 0 {
			fr := &work[len(work)-1]
			pf := p.Funcs[fr.node]
			advanced := false
			for fr.ei < len(pf.Edges) {
				callee := pf.Edges[fr.ei].Callee
				fr.ei++
				if _, known := p.Funcs[callee]; !known {
					continue
				}
				if _, seen := index[callee]; !seen {
					index[callee] = next
					low[callee] = next
					next++
					stack = append(stack, callee)
					onStack[callee] = true
					work = append(work, frame{node: callee})
					advanced = true
					break
				}
				if onStack[callee] && low[fr.node] > index[callee] {
					low[fr.node] = index[callee]
				}
			}
			if advanced {
				continue
			}
			// Node finished: pop, propagate lowlink, maybe emit SCC.
			done := fr.node
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].node
				if low[parent] > low[done] {
					low[parent] = low[done]
				}
			}
			if low[done] == index[done] {
				var scc []string
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == done {
						break
					}
				}
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
