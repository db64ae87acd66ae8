package lint

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// wantRe extracts the expectation regexes from fixture comments of the
// form `// want `pattern` `pattern“, in the style of x/tools'
// analysistest: one `// want` may carry several backticked patterns,
// one per expected diagnostic on that line.
var (
	wantMark = regexp.MustCompile(`// want\s`)
	wantRe   = regexp.MustCompile("`([^`]+)`")
)

// runFixture loads testdata/<name>, runs the analyzers, and checks the
// diagnostics against the fixture's want comments: every diagnostic
// must match a want on its line, and every want must be matched.
func runFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	pkg, fset, err := LoadFixture(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	diags, err := Run(fset, []*Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", name, err)
	}

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := map[string][]*want{} // "file:line" → expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				loc := wantMark.FindStringIndex(c.Text)
				if loc == nil {
					continue
				}
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[loc[1]:], -1) {
					pos := fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
					wants[key] = append(wants[key], &want{re: regexp.MustCompile(m[1])})
				}
			}
		}
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	var keys []string
	for key := range wants {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for _, w := range wants[key] {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", key, w.re)
			}
		}
	}
}

func TestMbufOwn(t *testing.T) {
	runFixture(t, "mbufown", []*Analyzer{NewMbufOwn(MbufOwnConfig{
		AllocFns:  []string{"mbufown.alloc"},
		MbufTypes: []string{"mbufown.Mbuf"},
	})})
}

func TestHotPathAlloc(t *testing.T) {
	runFixture(t, "hotpathalloc", []*Analyzer{NewHotPathAlloc(HotPathAllocConfig{
		Required: []string{"hotpathalloc.mustStayTagged", "hotpathalloc.hotInterior", "hotpathalloc.ghostFunction"},
		Registrars: map[string]string{
			"hotpathalloc.register":      "hotpathalloc.engine",
			"hotpathalloc.ghostRegister": "hotpathalloc.engine",
		},
	})})
}

func TestQuiescence(t *testing.T) {
	runFixture(t, "quiescence", []*Analyzer{NewQuiescence(QuiescenceConfig{
		Roots: []string{"quiescence.worker", "quiescence.ghostWorker"},
		Registrars: map[string]string{
			"quiescence.register":      "quiescence.engine",
			"quiescence.ghostRegister": "quiescence.ghostEngine",
		},
		Required: []string{"quiescence.tickRequired", "quiescence.ghostTick"},
	})})
}

// TestInterprocIgnore pins the three //lint:ignore × interprocedural
// semantics: a justified ignore at the allocation line inside a callee
// cleans the callee's summary for every hot caller; a justified ignore
// at one root's call site suppresses that root alone; a reason-less
// ignore suppresses nothing and is itself reported. Assertions are
// explicit because the malformed-ignore diagnostic lands on the
// directive's own line, where a want comment cannot sit.
func TestInterprocIgnore(t *testing.T) {
	pkg, fset, err := LoadFixture(filepath.Join("testdata", "interprocignore"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := Run(fset, []*Package{pkg}, []*Analyzer{NewHotPathAlloc(HotPathAllocConfig{})})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	var nIgnore, nBare, nMalformed int
	for _, d := range diags {
		switch {
		case d.Analyzer == "lintignore" && strings.Contains(d.Message, "non-empty reason"):
			nIgnore++
		case strings.Contains(d.Message, "allocation in interprocignore.calleeBare"):
			nBare++
		case strings.Contains(d.Message, "allocation in interprocignore.calleeMalformed"):
			nMalformed++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
		if strings.Contains(d.Message, "calleeJustified") {
			t.Errorf("callee-site justified ignore did not clean the summary: %s", d)
		}
	}
	if nIgnore != 1 {
		t.Errorf("got %d malformed-ignore diagnostics, want 1", nIgnore)
	}
	if nBare != 1 {
		t.Errorf("got %d calleeBare findings, want exactly 1 (the root-site ignore must suppress hotRootIgnore's copy only)", nBare)
	}
	if nMalformed != 1 {
		t.Errorf("got %d calleeMalformed findings, want 1 (a reason-less ignore must not clean the summary)", nMalformed)
	}
}

func TestAtomicCounter(t *testing.T) {
	runFixture(t, "atomiccounter", []*Analyzer{NewAtomicCounter(AtomicCounterConfig{
		QuiescentReadTypes: []string{"atomiccounter.quiet"},
	})})
}

func TestLockOrder(t *testing.T) {
	runFixture(t, "lockorder", []*Analyzer{NewLockOrder(LockOrderConfig{
		Classes: []LockClass{
			{Path: "lockorder.host.mu", Rank: 10},
			{Path: "lockorder.globalMu", Rank: 20},
			{Path: "lockorder.pool.mu", Rank: 30},
		},
		Sinks:     []string{"lockorder.drain", "lockorder.ghostDrain"},
		EmitTypes: []string{"lockorder.emitFn"},
	})})
}

func TestShardAffinity(t *testing.T) {
	runFixture(t, "shardaffinity", []*Analyzer{NewShardAffinity(ShardAffinityConfig{
		OwnedTypes:   []string{"shardaffinity.pcb", "shardaffinity.shard"},
		ShardContext: []string{"shardaffinity.rx", "shardaffinity.shard", "shardaffinity.pcb"},
		Handoffs:     []string{"shardaffinity.tick", "shardaffinity.host.dial"},
	})})
}

func TestDeterminism(t *testing.T) {
	runFixture(t, "determinism", []*Analyzer{NewDeterminism(DeterminismConfig{
		Packages: []string{"determinism"},
	})})
}

// TestIgnoreRequiresReason proves a reason-less //lint:ignore both gets
// reported and does NOT suppress the finding beneath it. The assertions
// live here because the directive occupies the line a want comment
// would need.
func TestIgnoreRequiresReason(t *testing.T) {
	pkg, fset, err := LoadFixture(filepath.Join("testdata", "lintignore"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := Run(fset, []*Package{pkg}, []*Analyzer{NewDeterminism(DeterminismConfig{
		Packages: []string{"lintignore"},
	})})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (malformed ignore + unsuppressed finding):\n%v", len(diags), diags)
	}
	byAnalyzer := map[string]string{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = d.Message
	}
	if msg, ok := byAnalyzer["lintignore"]; !ok || !strings.Contains(msg, "non-empty reason") {
		t.Errorf("missing or wrong malformed-ignore diagnostic: %q", msg)
	}
	if msg, ok := byAnalyzer["determinism"]; !ok || !strings.Contains(msg, "wall clock") {
		t.Errorf("reason-less ignore suppressed the finding it covered: %q", msg)
	}
}

func TestDefaultAnalyzers(t *testing.T) {
	names := map[string]bool{}
	for _, a := range DefaultAnalyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc, or run function", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"mbufown", "hotpathalloc", "quiescence", "atomiccounter", "lockorder", "determinism", "shardaffinity"} {
		if !names[want] {
			t.Errorf("DefaultAnalyzers is missing %q", want)
		}
	}
}

// TestRepoIsLintClean runs the full default suite over the module,
// exactly like `make lint`: the tree must stay free of unexplained
// findings, so CI catches regressions even when only `go test` runs.
// It then holds the handler edges derived from the tree's
// AddLayer/SetSink call sites to the registered handlers — the set the
// lint config listed by hand before it was derived.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loading the whole module is not short")
	}
	pkgs, fset, _, err := Load(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := Run(fset, pkgs, DefaultAnalyzers())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexplained finding: %s", d)
	}

	var got []string
	for invoker, handlers := range buildProgram(fset, pkgs, ignoreSites{}).handlerEdges(engineRegistrars) {
		for _, h := range handlers {
			got = append(got, shortQName(invoker)+" -> "+shortQName(h))
		}
	}
	sort.Strings(got)
	want := []string{
		"core.ShardedStack.flush -> netstack.Host.putPacket",
		"core.Stack.deliver -> netstack.Host.putPacket",
		"core.Stack.process -> netstack.rxPath.deviceInput",
		"core.Stack.process -> netstack.rxPath.etherInput",
		"core.Stack.process -> netstack.rxPath.icmpInput",
		"core.Stack.process -> netstack.rxPath.ipInput",
		"core.Stack.process -> netstack.rxPath.sockInput",
		"core.Stack.process -> netstack.rxPath.tcpInput",
		"core.Stack.process -> netstack.rxPath.udpInput",
	}
	t.Logf("derived handler edges:\n  %s", strings.Join(got, "\n  "))
	if !slices.Equal(got, want) {
		t.Errorf("derived handler edges differ from the registered handlers:\n got %q\nwant %q", got, want)
	}
}

// TestLoadLeavesNoUserCache holds Load and LoadFixture to writing
// nothing outside the Go build cache: with os.UserCacheDir pointed at an
// empty directory (and the build cache pinned where it was), a load must
// leave it empty.
func TestLoadLeavesNoUserCache(t *testing.T) {
	gocache, err := exec.Command("go", "env", "GOCACHE").Output()
	if err != nil {
		t.Fatalf("go env GOCACHE: %v", err)
	}
	t.Setenv("GOCACHE", strings.TrimSpace(string(gocache)))
	userCache := t.TempDir()
	t.Setenv("XDG_CACHE_HOME", userCache)
	if dir, err := os.UserCacheDir(); err != nil || dir != userCache {
		t.Skipf("cannot redirect os.UserCacheDir here (%q, %v)", dir, err)
	}
	if _, _, _, err := Load(filepath.Join("..", ".."), []string{"./internal/checksum"}); err != nil {
		t.Fatalf("loading a package: %v", err)
	}
	if _, _, err := LoadFixture(filepath.Join("testdata", "determinism")); err != nil {
		t.Fatalf("loading a fixture: %v", err)
	}
	if left, err := os.ReadDir(userCache); err != nil || len(left) > 0 {
		t.Errorf("a load wrote under os.UserCacheDir(): %v %v", left, err)
	}
}
