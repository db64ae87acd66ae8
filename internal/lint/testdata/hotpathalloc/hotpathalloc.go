// Fixture for the hotpathalloc analyzer. The test configures
// Required = ["hotpathalloc.mustStayTagged", "hotpathalloc.hotInterior",
// "hotpathalloc.ghostFunction"] and
// Registrars = {"hotpathalloc.register": "hotpathalloc.engine",
// "hotpathalloc.ghostRegister": "hotpathalloc.engine"} — no handler and
// no cold path is named; ghostFunction and ghostRegister are deliberately
// absent, so the regression guards fire on the package clause below.
package hotpathalloc // want `ghostFunction is required by the lint config but no longer declared` `registrar hotpathalloc.ghostRegister is required by the lint config but no longer declared`

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

// declaredCold is tagged, and the tag is the whole declaration: the
// walk stops silently, making it a sanctioned escape hatch.
//
//ldlp:coldpath
func declaredCold(n int) *item { return &item{v: n} }

//ldlp:hotpath
func hotWithDeclaredCold(n int) *item {
	return declaredCold(n)
}

// A function cannot be both hot and cold.
//
//ldlp:hotpath
//ldlp:coldpath
func confusedTags() {} // want `carries both //ldlp:hotpath and //ldlp:coldpath; pick one`

// engine invokes its handlers through function values wired at setup —
// statically unresolvable, so the test config declares register as the
// registrar engine calls back for, and the edges engine -> handler are
// read off wire's register calls: a function value and a method value
// that allocate are findings, a clean handler and a //ldlp:coldpath one
// (the ICMP layer's shape) are not. The findings land on the declaration
// because there is no visible call site.
//
//ldlp:hotpath
func engine() { // want `reaches an allocation in hotpathalloc.handlerAlloc \(chain: hotpathalloc.engine -> hotpathalloc.handlerAlloc\)` `reaches an allocation in hotpathalloc.layer.input \(chain: hotpathalloc.engine -> hotpathalloc.layer.input\)`
	for _, h := range handlers {
		h(1)
	}
}

var handlers []func(int)

func register(h func(int)) { handlers = append(handlers, h) }

func wire(l *layer) {
	register(handlerAlloc)
	register(l.input)
	register(handlerClean)
	register(handlerCold)
}

func handlerAlloc(n int) {
	s := make([]int, n)
	_ = s
}

type layer struct{ seen []int }

func (l *layer) input(n int) { l.seen = append(l.seen, n) }

func handlerClean(n int) {}

//ldlp:coldpath
func handlerCold(n int) { _ = make([]int, n) }

// --- Required holds entry points only ---

// hotInterior is in Required, but hotEntry's closure walk reaches it
// (through an untagged step), so an untagged hotInterior would still be
// checked: the entry is redundant, and says so.
//
//ldlp:hotpath
func hotEntry() { viaUntagged() }

func viaUntagged() { hotInterior() }

//ldlp:hotpath
func hotInterior() {} // want `redundant in the lint config's Required list: covered by hotpathalloc.hotEntry`

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
