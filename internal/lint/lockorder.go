package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockClass declares one mutex the lockorder analyzer tracks.
type LockClass struct {
	// Path qualifies the mutex: "pkg.Type.field" for a struct field,
	// "pkg.var" for a package-level mutex (MatchQName patterns).
	Path string
	// Rank orders acquisition: a mutex may be acquired only while every
	// held mutex has a strictly lower rank. Equal ranks never nest.
	Rank int
}

// LockWrapper maps a helper function to the lock class it manipulates
// (e.g. netstack's Host.lockRx / Host.unlockRx pair).
type LockWrapper struct {
	Fn      string // qualified function name
	Class   string // the Path of the class it acquires or releases
	Release bool
}

// LockOrderConfig parameterizes the lockorder analyzer.
type LockOrderConfig struct {
	Classes  []LockClass
	Wrappers []LockWrapper
	// Sinks are qualified names of blocking pump/drain entry points that
	// must never run with any declared mutex held.
	Sinks []string
	// EmitTypes are qualified named function types (core.Emit) whose
	// invocation hands a message to the next layer; doing that with a
	// declared mutex held needs an explicit justification.
	EmitTypes []string
}

// NewLockOrder builds the lockorder analyzer: an intra-procedural
// simulation of the declared mutexes through each function body. It
// reports acquisitions that violate the global rank order (including
// re-acquiring a held class) and calls to sinks or Emit-typed values
// while any declared mutex is held. Function literals are simulated
// separately with an empty held-set: they run later, on their own
// goroutine or schedule.
func NewLockOrder(cfg LockOrderConfig) *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
		Doc:  "declared mutexes acquire in rank order; no declared lock held across Emit/sink calls",
	}
	rank := map[string]int{}
	for _, c := range cfg.Classes {
		rank[c.Path] = c.Rank
	}
	a.Run = func(pass *Pass) error {
		pass.reportUndeclared("blocking sink", cfg.Sinks...)
		lo := &lockOrder{pass: pass, cfg: cfg, rank: rank}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				lo.walkStmts(fd.Body.List, nil)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if fl, ok := n.(*ast.FuncLit); ok {
						lo.walkStmts(fl.Body.List, nil)
					}
					return true
				})
			}
		}
		return nil
	}
	return a
}

type lockOrder struct {
	pass *Pass
	cfg  LockOrderConfig
	rank map[string]int
}

// classOfExpr resolves the receiver of a Lock/Unlock call to a declared
// class Path.
func (lo *lockOrder) classOfExpr(x ast.Expr) (string, bool) {
	qname, _ := atomicTargetQName(lo.pass.TypesInfo, ast.Unparen(x))
	if qname == "" {
		return "", false
	}
	for _, c := range lo.cfg.Classes {
		if MatchQName(qname, []string{c.Path}) {
			return c.Path, true
		}
	}
	return "", false
}

// lockCall recognizes m.Lock()/m.RLock()/m.TryLock()/m.Unlock()/... on
// a declared class. release=true for the Unlock forms.
func (lo *lockOrder) lockCall(call *ast.CallExpr) (class string, release, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
	case "Unlock", "RUnlock":
		release = true
	default:
		return "", false, false
	}
	class, ok = lo.classOfExpr(sel.X)
	return class, release, ok
}

// wrapperCall recognizes a configured lock-wrapper invocation.
func (lo *lockOrder) wrapperCall(call *ast.CallExpr) (class string, release, ok bool) {
	qname, resolved := CalleeQName(lo.pass.TypesInfo, call)
	if !resolved {
		return "", false, false
	}
	for _, w := range lo.cfg.Wrappers {
		if MatchQName(qname, []string{w.Fn}) {
			return w.Class, w.Release, true
		}
	}
	return "", false, false
}

// walkStmts simulates the held-lock set through a statement list and
// returns the set live at its end.
func (lo *lockOrder) walkStmts(stmts []ast.Stmt, held []string) []string {
	for _, st := range stmts {
		held = lo.walkStmt(st, held)
	}
	return held
}

func (lo *lockOrder) walkStmt(st ast.Stmt, held []string) []string {
	copyHeld := func() []string { return append([]string(nil), held...) }
	switch s := st.(type) {
	case *ast.ExprStmt:
		return lo.handleExpr(s.X, held)
	case *ast.BlockStmt:
		return lo.walkStmts(s.List, held)
	case *ast.DeferStmt:
		// Deferred unlocks run at return, so the lock stays held for the
		// rest of the body. Deferred sinks/emits still execute with
		// whatever is held at that point — check against the current set.
		if _, release, ok := lo.lockCall(s.Call); ok && release {
			return held
		}
		if _, release, ok := lo.wrapperCall(s.Call); ok && release {
			return held
		}
		lo.checkCalls(s.Call, held)
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = lo.walkStmt(s.Init, held)
		}
		bodyHeld := copyHeld()
		if cls, ok := lo.tryLockInCond(s.Cond); ok {
			lo.checkAcquire(s.Cond.Pos(), cls, bodyHeld)
			bodyHeld = append(bodyHeld, cls)
		}
		lo.walkStmts(s.Body.List, bodyHeld)
		if s.Else != nil {
			lo.walkStmt(s.Else, copyHeld())
		}
		return held
	case *ast.ForStmt:
		lo.walkStmts(s.Body.List, copyHeld())
		return held
	case *ast.RangeStmt:
		lo.checkCalls(s.X, held)
		lo.walkStmts(s.Body.List, copyHeld())
		return held
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var body *ast.BlockStmt
		if sw, ok := s.(*ast.SwitchStmt); ok {
			body = sw.Body
		} else {
			body = s.(*ast.TypeSwitchStmt).Body
		}
		for _, cl := range body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				lo.walkStmts(cc.Body, copyHeld())
			}
		}
		return held
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				lo.walkStmts(cc.Body, copyHeld())
			}
		}
		return held
	case *ast.GoStmt:
		return held // the goroutine starts with its own empty held-set
	case *ast.LabeledStmt:
		return lo.walkStmt(s.Stmt, held)
	default:
		lo.checkCalls(st, held)
		return held
	}
}

// handleExpr interprets one expression statement: lock operations
// mutate the held set; anything else is checked for sink/emit calls.
func (lo *lockOrder) handleExpr(x ast.Expr, held []string) []string {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		lo.checkCalls(x, held)
		return held
	}
	cls, release, isLock := lo.lockCall(call)
	if !isLock {
		cls, release, isLock = lo.wrapperCall(call)
	}
	if isLock {
		if release {
			return removeClass(held, cls)
		}
		lo.checkAcquire(call.Pos(), cls, held)
		return append(held, cls)
	}
	lo.checkCalls(x, held)
	return held
}

// tryLockInCond detects `if m.TryLock() { ... }` so the branch body is
// simulated with the lock held.
func (lo *lockOrder) tryLockInCond(cond ast.Expr) (string, bool) {
	call, ok := ast.Unparen(cond).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	cls, release, isLock := lo.lockCall(call)
	if isLock && !release {
		return cls, true
	}
	return "", false
}

// checkAcquire reports a rank-order violation when acquiring cls with
// held locks of equal or higher rank.
func (lo *lockOrder) checkAcquire(pos token.Pos, cls string, held []string) {
	for _, h := range held {
		if lo.rank[h] >= lo.rank[cls] {
			lo.pass.Reportf(pos,
				"acquiring %s (rank %d) while holding %s (rank %d) violates the declared lock order",
				cls, lo.rank[cls], h, lo.rank[h])
		}
	}
}

// checkCalls scans an arbitrary subtree (skipping nested function
// literals) for sink and Emit-typed calls made while locks are held.
func (lo *lockOrder) checkCalls(n ast.Node, held []string) {
	if len(held) == 0 || n == nil {
		return
	}
	info := lo.pass.TypesInfo
	ast.Inspect(n, func(nn ast.Node) bool {
		if _, isLit := nn.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := nn.(*ast.CallExpr)
		if !ok {
			return true
		}
		if qname, resolved := CalleeQName(info, call); resolved && MatchQName(qname, lo.cfg.Sinks) {
			lo.pass.Reportf(call.Pos(), "%s may block draining shards; calling it while holding %s risks deadlock",
				qname, strings.Join(held, ", "))
		}
		if tname := namedFuncType(info, call.Fun); tname != "" && MatchQName(tname, lo.cfg.EmitTypes) {
			lo.pass.Reportf(call.Pos(), "emit hand-off (%s) invoked while holding %s — layers must not run under a host lock",
				tname, strings.Join(held, ", "))
		}
		return true
	})
}

// namedFuncType names the declared function type of a call target, if
// the callee is a value of a named func type (e.g. core.Emit).
func namedFuncType(info *types.Info, fun ast.Expr) string {
	t := info.TypeOf(ast.Unparen(fun))
	if t == nil {
		return ""
	}
	named, ok := t.(*types.Named)
	if !ok {
		if alias, isAlias := t.(*types.Alias); isAlias {
			named, ok = types.Unalias(alias).(*types.Named)
		}
		if !ok {
			return ""
		}
	}
	if _, isFunc := named.Underlying().(*types.Signature); !isFunc {
		return ""
	}
	obj := named.Origin().Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// removeClass drops the most recent occurrence of cls.
func removeClass(held []string, cls string) []string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == cls {
			return append(append([]string(nil), held[:i]...), held[i+1:]...)
		}
	}
	return held
}
