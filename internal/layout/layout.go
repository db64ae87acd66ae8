// Package layout implements the §5.4 code-layout optimization the paper
// discusses (citing Mosberger's trace-driven block repositioning and
// DEC's Cord tool): given which bytes of each function a trace actually
// executed, rewrite the layout so executed ("hot") bytes are packed
// densely at the front and never-executed error paths are exiled to a
// cold region. The paper concludes that ≈25% of instruction bytes fetched
// into the cache are never executed, so a perfectly dense layout shrinks
// the code working set by about that much — and instruction prefetching
// makes dense layouts even more valuable.
//
// The optimizer consumes a memtrace.Trace, produces a remapping of code
// addresses, and emits a new trace with the remapped addresses, so the
// standard working-set analysis quantifies the benefit directly.
package layout

import (
	"maps"
	"slices"
	"sort"

	"ldlp/internal/memtrace"
)

// Region is a contiguous hot range of one function's code.
type region struct {
	oldStart uint64
	length   uint64
	newStart uint64
}

// Plan is a code-layout optimization plan: an address remapping for the
// executed portions of the traced code.
type Plan struct {
	regions []region
	// HotBytes is the total executed code placed densely.
	HotBytes int
	// Functions counts distinct functions repositioned.
	Functions int
}

// Optimize builds a dense layout plan from the instruction fetches in a
// trace. Hot regions are packed back to back (line-aligned per function
// so two functions never share a line — matching how a real linker
// aligns function entries). Functions are assumed to occupy disjoint
// address regions, as compiled code does; a byte fetched under two
// different function labels would be duplicated in the plan.
func Optimize(t *memtrace.Trace, lineSize int) *Plan {
	// Collect executed byte ranges per function, preserving
	// first-appearance order for determinism.
	type funcRanges struct {
		name  string
		bytes map[uint64]bool
	}
	byFunc := map[string]*funcRanges{}
	var order []string
	for i := range t.Records {
		r := &t.Records[i]
		if r.Kind != memtrace.IFetch || r.Excluded {
			continue
		}
		fr := byFunc[r.Func]
		if fr == nil {
			fr = &funcRanges{name: r.Func, bytes: make(map[uint64]bool)}
			byFunc[r.Func] = fr
			order = append(order, r.Func)
		}
		for b := r.Addr; b < r.Addr+uint64(r.Size); b++ {
			fr.bytes[b] = true
		}
	}

	p := &Plan{}
	cursor := uint64(1 << 32) // fresh address region for the hot segment
	align := uint64(lineSize)
	for _, name := range order {
		fr := byFunc[name]
		addrs := slices.Sorted(maps.Keys(fr.bytes))

		// Coalesce into contiguous runs, then pack the runs back to back
		// at the cursor (dropping the gaps: those are the never-executed
		// blocks being exiled).
		runStart := addrs[0]
		prev := addrs[0]
		place := func(start, end uint64) {
			length := end - start + 1
			p.regions = append(p.regions, region{oldStart: start, length: length, newStart: cursor})
			cursor += length
			p.HotBytes += int(length)
		}
		for _, a := range addrs[1:] {
			if a == prev+1 {
				prev = a
				continue
			}
			place(runStart, prev)
			runStart, prev = a, a
		}
		place(runStart, prev)
		p.Functions++
		// Line-align the next function's entry.
		if rem := cursor % align; rem != 0 {
			cursor += align - rem
		}
	}
	sort.Slice(p.regions, func(i, j int) bool { return p.regions[i].oldStart < p.regions[j].oldStart })
	return p
}

// remap translates one code address through the plan; ok=false if the
// address was never executed in the planning trace (a cold byte).
func (p *Plan) remap(addr uint64) (uint64, bool) {
	i := sort.Search(len(p.regions), func(i int) bool {
		return p.regions[i].oldStart+p.regions[i].length > addr
	})
	if i == len(p.regions) || addr < p.regions[i].oldStart {
		return 0, false
	}
	r := &p.regions[i]
	return r.newStart + (addr - r.oldStart), true
}

// Apply rewrites a trace's instruction fetches through the plan,
// returning a new trace as it would look running the laid-out binary.
// Fetches of addresses the plan never saw (possible when applying a plan
// built from one trace to a different workload's trace) keep their
// original addresses in a distinct cold region, modelling the exiled
// blocks still being reachable.
func (p *Plan) Apply(t *memtrace.Trace) *memtrace.Trace {
	out := memtrace.NewTrace(t.Phases...)
	out.Records = make([]memtrace.Record, 0, len(t.Records))
	const coldBase = uint64(3) << 32
	for i := range t.Records {
		r := t.Records[i]
		if r.Kind == memtrace.IFetch && !r.Excluded {
			if na, ok := p.remap(r.Addr); ok {
				r.Addr = na
			} else {
				r.Addr = coldBase + r.Addr
			}
		}
		out.Records = append(out.Records, r)
	}
	return out
}

// Benefit runs the full §5.4 experiment: analyze the trace before and
// after layout optimization at the given line size and report the code
// working sets (lines and bytes) plus the dilution removed.
type Benefit struct {
	Before, After memtrace.ClassSet
	// LinesSaved is the reduction in code cache lines.
	LinesSaved int
	// Reduction is LinesSaved / Before.Lines.
	Reduction float64
}

// Measure computes the layout benefit for a trace.
func Measure(t *memtrace.Trace, lineSize int) Benefit {
	before := memtrace.Analyze(t, lineSize)
	plan := Optimize(t, lineSize)
	after := memtrace.Analyze(plan.Apply(t), lineSize)
	b := Benefit{Before: before.Code, After: after.Code}
	b.LinesSaved = before.Code.Lines - after.Code.Lines
	if before.Code.Lines > 0 {
		b.Reduction = float64(b.LinesSaved) / float64(before.Code.Lines)
	}
	return b
}
