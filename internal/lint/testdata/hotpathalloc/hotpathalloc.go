// Fixture for the hotpathalloc analyzer. The test configures
// Required = ["hotpathalloc.mustStayTagged", "hotpathalloc.ghostFunction"],
// ColdPaths = ["hotpathalloc.declaredCold", "hotpathalloc.ghostCold"], and
// DeclaredEdges = {"hotpathalloc.engine": ["hotpathalloc.handlerAlloc"],
// "hotpathalloc.ghostEngine": ["hotpathalloc.handlerAlloc"]};
// ghostFunction, ghostCold and ghostEngine are deliberately absent, so
// the regression guards fire on the package clause below.
package hotpathalloc // want `ghostFunction is required by the lint config but no longer declared` `coldpath hotpathalloc.ghostCold is declared in the lint config but no function carries` `declared-edge caller hotpathalloc.ghostEngine is required by the lint config but no longer declared`

import "fmt"

type item struct{ v int }

func sink(v any) {}

//ldlp:hotpath
func hotComposites(n int) {
	p := &item{v: n} // want `composite literal escapes to the heap`
	_ = p
	s := make([]int, n) // want `allocates on the hot path`
	_ = s
	m := map[int]int{} // want `literal allocates on the hot path`
	_ = m
}

//ldlp:hotpath
func hotAppendAndFmt(q []item, n int) []item {
	q = append(q, item{v: n}) // want `append may grow its backing array`
	fmt.Println(n)            // want `fmt.Println on the hot path allocates`
	return q
}

//ldlp:hotpath
func hotBoxing(n int) {
	sink(n) // want `boxes int into an interface`
}

//ldlp:hotpath
func hotClosure(n int) func() int {
	f := func() int { return n } // want `allocates a closure`
	return f
}

//ldlp:hotpath
func hotStrings(a, b string) string {
	return a + b // want `string concatenation allocates`
}

// The allocation-free idioms must stay silent: value composites,
// bounded append into a reused backing array, pointer arguments, and
// panic messages (a panicking path has already left the hot path).
//
//ldlp:hotpath
func hotClean(q []item, p *item, n int) []item {
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n))
	}
	v := item{v: n}
	_ = v
	sink(p)
	keep := q[:0]
	for _, it := range q {
		if it.v > 0 {
			keep = append(keep, it)
		}
	}
	return keep
}

// Untagged functions may allocate freely.
func coldPath(n int) *item { return &item{v: n} }

// The regression guard: this function is in Required but lost its tag.
func mustStayTagged() {} // want `must carry //ldlp:hotpath`

// A justified suppression on a genuine cold path inside a tagged
// function.
//
//ldlp:hotpath
func hotWithColdMiss(cache *item) *item {
	if cache != nil {
		return cache
	}
	//lint:ignore hotpathalloc fixture: pool-miss cold path runs once per warmup
	return &item{v: 1}
}

// --- Transitive closure cases ---

// midClean does not allocate itself; the leaf two hops down does, and
// the finding must land at the hot root's call site with the chain.
func midClean(n int) *item { return leafAlloc(n) }

func leafAlloc(n int) *item { return &item{v: n} }

//ldlp:hotpath
func hotTransitive(n int) *item {
	return midClean(n) // want `reaches an allocation in hotpathalloc.leafAlloc \(chain: hotpathalloc.hotTransitive -> hotpathalloc.midClean -> hotpathalloc.leafAlloc\)`
}

// declaredCold is tagged AND declared in the test config: the walk
// stops silently, making it a sanctioned escape hatch.
//
//ldlp:coldpath
func declaredCold(n int) *item { return &item{v: n} }

//ldlp:hotpath
func hotWithDeclaredCold(n int) *item {
	return declaredCold(n)
}

// undeclaredCold carries the tag but is NOT in ColdPaths: reaching it
// from a hot root is reported, with the chain.
//
//ldlp:coldpath
func undeclaredCold(n int) *item { return &item{v: n} }

//ldlp:hotpath
func hotWithUndeclaredCold(n int) *item {
	return undeclaredCold(n) // want `reaches //ldlp:coldpath function hotpathalloc.undeclaredCold that is not declared in the lint config`
}

// A function cannot be both hot and cold.
//
//ldlp:hotpath
//ldlp:coldpath
func confusedTags() {} // want `carries both //ldlp:hotpath and //ldlp:coldpath; pick one`

// engine invokes its handler through a function value wired at setup —
// statically unresolvable, so the test config declares the edge
// engine -> handlerAlloc. The finding lands on the declaration because
// there is no visible call site.
//
//ldlp:hotpath
func engine(h func(int)) { // want `reaches an allocation in hotpathalloc.handlerAlloc \(chain: hotpathalloc.engine -> hotpathalloc.handlerAlloc\)`
	h(1)
}

func handlerAlloc(n int) {
	s := make([]int, n)
	_ = s
}

// --- Generic receiver resolution ---

// ring is generic: the call below is an instantiation, and the edge
// must resolve to the origin method hotpathalloc.ring.push, not to the
// instantiated type.
type ring[T any] struct{ buf []T }

func (r *ring[T]) push(v T) {
	r.buf = append(r.buf, v)
}

//ldlp:hotpath
func hotGeneric(r *ring[int]) {
	r.push(1) // want `reaches an allocation in hotpathalloc.ring.push \(chain: hotpathalloc.hotGeneric -> hotpathalloc.ring.push\)`
}
