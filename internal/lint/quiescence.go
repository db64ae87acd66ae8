package lint

import (
	"go/ast"
)

// QuiescenceConfig parameterizes the quiescence analyzer.
type QuiescenceConfig struct {
	// Roots are qualified-name patterns of the rx-worker entry points
	// (the shard worker loop). Everything they can reach statically
	// runs, potentially, while packets are in flight.
	Roots []string
	// Registrars maps a function that stores the function value it is
	// given to the function that later calls it (Program.handlerEdges):
	// the engine invokes layer handlers and the caller's Sink through
	// values wired once at setup, so the worker's true closure includes
	// every registered handler.
	Registrars map[string]string
	// Required lists functions that MUST carry the //ldlp:quiescent tag
	// and that no other analyzer would miss it on: one that touches
	// shard-owned state is a shardaffinity finding the moment the tag
	// goes, so only the at-quiescence walks of other state are listed.
	Required []string
}

// NewQuiescence builds the quiescence analyzer: functions whose doc
// comment carries //ldlp:quiescent declare that they run only while
// every shard worker is parked behind the pump's drain barrier —
// timer ticks, the stats walks, the quiescent socket API. The
// analyzer turns that comment into a checked invariant: a tagged
// function must be statically unreachable from the rx-worker roots
// (resolved call edges plus the handlers its Registrars were given). A
// violation is reported at the tagged function's declaration with the
// full chain from the root that reaches it.
//
// This is the static half of the proof; the dynamic half is the drain
// barrier itself. Together they are what lets shardaffinity exempt
// quiescent-tagged functions from the hand-off whitelist.
func NewQuiescence(cfg QuiescenceConfig) *Analyzer {
	a := &Analyzer{
		Name: "quiescence",
		Doc:  "//ldlp:quiescent functions must be statically unreachable from the rx-worker roots",
	}
	var reached map[string]pathStep // memoized per Program
	var reachedFor *Program
	a.Run = func(pass *Pass) error {
		if pass.Prog != reachedFor {
			var roots []string
			for _, root := range cfg.Roots {
				roots = append(roots, pass.Prog.matching(root)...)
			}
			reached = pass.Prog.reachFrom(roots, pass.Prog.handlerEdges(cfg.Registrars), nil)
			reachedFor = pass.Prog
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				qname := FuncQName(pass.PkgPath, fd)
				tagged := HasDirective(fd.Doc, "//ldlp:quiescent")
				if !tagged && MatchQName(qname, cfg.Required) {
					pass.Reportf(fd.Name.Pos(), "%s runs only at pump quiescence and must carry //ldlp:quiescent", qname)
				}
				if !tagged {
					continue
				}
				if _, hit := reached[qname]; hit {
					chain := chainTo(reached, qname)
					pass.ReportChain(fd.Name.Pos(), chain,
						"//ldlp:quiescent function %s is statically reachable from rx-worker root %s (chain: %s); quiescent code must not be callable while workers run",
						shortQName(qname), shortQName(chain[0]), formatChain(chain))
				}
			}
		}
		pass.reportUndeclared("quiescent function", cfg.Required...)
		pass.reportUndeclared("rx-worker root", cfg.Roots...)
		pass.reportUndeclaredRegistrars(cfg.Registrars)
		return nil
	}
	return a
}
