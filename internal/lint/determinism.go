package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// DeterminismConfig parameterizes the determinism analyzer.
type DeterminismConfig struct {
	// Tree is the import path the rules apply to: that package and every
	// package beneath it. Test files are exempt — tests may legitimately
	// iterate maps to assert set contents.
	Tree string
	// Exempt lists the packages under Tree the rules skip.
	Exempt []string
}

// NewDeterminism builds the determinism analyzer. Everything under the
// tree must replay bit-identically per seed (the simulators, the fault
// injectors, the stack's timers and retries, the artifacts they print),
// so three nondeterminism sources are banned outright there:
// wall-clock time (time.Now and friends — simulated time is threaded
// explicitly), the global math/rand PRNG (package-level functions share
// unseeded process-global state; a locally seeded *rand.Rand is fine),
// and map iteration, whose order varies run to run.
func NewDeterminism(cfg DeterminismConfig) *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc:  "no wall-clock, global PRNG, or map-iteration order in seed-replayable packages",
	}
	a.Run = func(pass *Pass) error {
		if pass.PkgPath != cfg.Tree && !strings.HasPrefix(pass.PkgPath, cfg.Tree+"/") ||
			slices.Contains(cfg.Exempt, pass.PkgPath) {
			return nil
		}
		info := pass.TypesInfo
		for _, f := range pass.Files {
			if pass.IsTestFile(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					qname, ok := CalleeQName(info, x)
					if !ok {
						return true
					}
					switch qname {
					case "time.Now", "time.Since", "time.Until":
						pass.Reportf(x.Pos(), "%s reads the wall clock; replay depends on the seed alone — thread simulated time instead", qname)
					}
					if rest, found := strings.CutPrefix(qname, "math/rand."); found &&
						!strings.Contains(rest, ".") && rest != "New" && rest != "NewSource" && rest != "NewZipf" {
						pass.Reportf(x.Pos(), "math/rand.%s uses the process-global PRNG; draw from a seeded *rand.Rand so runs replay per seed", rest)
					}
				case *ast.RangeStmt:
					if t := info.TypeOf(x.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							pass.Reportf(x.Pos(), "map iteration order is nondeterministic; iterate a sorted key slice (or restructure) so output replays per seed")
						}
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}
