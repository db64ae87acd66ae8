// Package memtrace represents memory-reference traces and the analyses the
// paper runs over them.
//
// The paper's measurement apparatus (§2.2) records every memory reference
// made by the NetBSD TCP receive & acknowledge path and then classifies the
// touched cache lines by class (code / read-only data / mutable data) and
// by protocol layer, producing Table 1 (working set breakdown at 32-byte
// line granularity), Figure 1 (a per-phase map of active code), and Table 3
// (how the working set changes with cache line size). This package is that
// analysis tooling; internal/tcpmodel produces the traces.
//
// Classification rules follow §2.4 exactly:
//   - The unit of granularity is the cache line: a reference to any byte
//     makes the whole line part of the working set.
//   - Data is read-only if it was never written during the trace.
//   - Code is classified into layers by function; data lines are assigned
//     to whichever layer referenced them first.
//   - Packet contents, hardware registers and stack accesses are excluded
//     from the working set (producers simply do not emit them, or mark
//     them Excluded so phase totals can still count them).
package memtrace

import (
	"fmt"
	"sort"
)

// Kind distinguishes reference types.
type Kind int

const (
	// IFetch is an instruction fetch.
	IFetch Kind = iota
	// Load is a data read.
	Load
	// Store is a data write.
	Store
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case IFetch:
		return "ifetch"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Record is one memory reference.
type Record struct {
	Addr uint64
	Size int
	Kind Kind
	// Phase indexes Trace.Phases (e.g. entry / packet interrupt / exit).
	Phase int
	// Layer is the protocol-layer group for Table 1 ("TCP", "Buffer mgmt", …).
	Layer string
	// Func is the function name for the Figure 1 map.
	Func string
	// Excluded marks references that the paper's working-set accounting
	// skips (packet contents, stack, device registers) but that still
	// count in the per-phase reference totals of Figure 1.
	Excluded bool
}

// Trace is an ordered reference stream.
type Trace struct {
	Phases  []string
	Records []Record
}

// NewTrace creates a trace with the given phase names.
func NewTrace(phases ...string) *Trace {
	return &Trace{Phases: phases}
}

// Append adds one record. It panics on an out-of-range phase or
// non-positive size: producers are in this module, so that is a bug.
func (t *Trace) Append(r Record) {
	if r.Phase < 0 || r.Phase >= len(t.Phases) {
		panic(fmt.Sprintf("memtrace: record phase %d out of range (0..%d)", r.Phase, len(t.Phases)-1))
	}
	if r.Size <= 0 {
		panic(fmt.Sprintf("memtrace: record with non-positive size %d", r.Size))
	}
	t.Records = append(t.Records, r)
}

// ClassSet is the working set of one class at one line size.
type ClassSet struct {
	// Lines counts distinct cache lines.
	Lines int
	// Bytes is Lines * lineSize — the paper's Table 1 unit.
	Bytes int
	// TouchedBytes counts distinct bytes at byte granularity, used for the
	// §5.4 dilution estimate.
	TouchedBytes int
}

// LayerSet is one Table 1 row: per-class line-granular working set sizes
// in bytes for one layer group.
type LayerSet struct {
	Layer    string
	Code     int
	ReadOnly int
	Mutable  int
}

// PhaseSummary aggregates one phase of the trace for Figure 1's margins:
// distinct bytes (line-granular) and total references per kind, including
// excluded references (the figure's totals count packet copies).
type PhaseSummary struct {
	Name       string
	CodeBytes  int
	CodeRefs   int
	ReadBytes  int
	ReadRefs   int
	WriteBytes int
	WriteRefs  int
}

// FuncTouch reports how much of one function's code one phase touched
// and how many instruction references it made there (Figure 1 plots the
// touch map; the reference counts distinguish straight-line code from
// loops).
type FuncTouch struct {
	Func  string
	Bytes int
	Refs  int
}

// Analysis is the result of analyzing a trace at one line size.
type Analysis struct {
	LineSize int

	// Code, ReadOnly, Mutable are whole-trace per-class working sets
	// (excluded references not counted).
	Code, ReadOnly, Mutable ClassSet

	// PerLayer holds Table 1 rows in first-appearance order.
	PerLayer []LayerSet

	// Phases holds Figure 1 margin totals per phase.
	Phases []PhaseSummary

	// CodeByPhaseFunc[phase] lists per-function touched code bytes
	// (line-granular), sorted by descending bytes: the Figure 1 map.
	CodeByPhaseFunc [][]FuncTouch
}

// Dilution estimates the fraction of fetched code bytes that were never
// executed (§5.4 concludes ≈25% for the TCP/IP traces at 32-byte lines).
func (a *Analysis) Dilution() float64 {
	if a.Code.Bytes == 0 {
		return 0
	}
	return 1 - float64(a.Code.TouchedBytes)/float64(a.Code.Bytes)
}

type classID int

const (
	classCode classID = iota
	classRO
	classMutable
)

// Analyze computes working sets, layer attribution and phase summaries at
// the given cache line size.
func Analyze(t *Trace, lineSize int) *Analysis {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("memtrace: line size %d is not a positive power of two", lineSize))
	}
	shift := uint(0)
	for 1<<shift != lineSize {
		shift++
	}

	// Pass 1: find every data line that is ever stored to; those lines are
	// mutable for the whole trace (the paper classifies post-hoc).
	written := make(map[uint64]bool)
	for i := range t.Records {
		r := &t.Records[i]
		if r.Kind == Store && !r.Excluded {
			first := r.Addr >> shift
			last := (r.Addr + uint64(r.Size) - 1) >> shift
			for line := first; line <= last; line++ {
				written[line] = true
			}
		}
	}

	// Pass 2: attribute lines to layers (first touch wins) and build sets.
	type lineKey struct {
		class classID
		line  uint64
	}
	lineLayer := make(map[lineKey]string)
	layerOrder := []string{}
	layerSeen := make(map[string]bool)
	// Per class distinct lines, and byte-granularity touched byte sets.
	lines := [3]map[uint64]bool{{}, {}, {}}
	bytes := [3]map[uint64]bool{{}, {}, {}}

	// Phase accounting (includes excluded refs).
	phaseLines := make([][3]map[uint64]bool, len(t.Phases))
	for i := range phaseLines {
		phaseLines[i] = [3]map[uint64]bool{{}, {}, {}}
	}
	phaseRefs := make([][3]int, len(t.Phases))

	// Figure 1 map: per phase per function, set of touched code lines
	// plus reference counts.
	funcLines := make([]map[string]map[uint64]bool, len(t.Phases))
	funcRefs := make([]map[string]int, len(t.Phases))
	for i := range funcLines {
		funcLines[i] = make(map[string]map[uint64]bool)
		funcRefs[i] = make(map[string]int)
	}

	for i := range t.Records {
		r := &t.Records[i]
		var class classID
		var phaseClass classID
		switch r.Kind {
		case IFetch:
			class, phaseClass = classCode, classCode
		case Load:
			phaseClass = classRO // phase margin counts loads as "Read"
			class = classRO
		case Store:
			phaseClass = classMutable // and stores as "Write"
			class = classMutable
		}

		first := r.Addr >> shift
		last := (r.Addr + uint64(r.Size) - 1) >> shift

		// Phase margins count everything, excluded or not.
		phaseRefs[r.Phase][phaseClass]++
		for line := first; line <= last; line++ {
			phaseLines[r.Phase][phaseClass][line] = true
		}
		if r.Kind == IFetch && r.Func != "" {
			funcRefs[r.Phase][r.Func]++
			fl := funcLines[r.Phase][r.Func]
			if fl == nil {
				fl = make(map[uint64]bool)
				funcLines[r.Phase][r.Func] = fl
			}
			for line := first; line <= last; line++ {
				fl[line] = true
			}
		}

		if r.Excluded {
			continue
		}

		// Working-set class: loads of lines that are ever written belong
		// to the mutable class.
		if r.Kind != IFetch {
			class = classRO
			for line := first; line <= last; line++ {
				if written[line] {
					class = classMutable
					break
				}
			}
			// A multi-line reference could straddle classes; classify per
			// line below instead of per record.
		}

		for line := first; line <= last; line++ {
			c := class
			if r.Kind != IFetch {
				if written[line] {
					c = classMutable
				} else {
					c = classRO
				}
			}
			lines[c][line] = true
			k := lineKey{c, line}
			if _, ok := lineLayer[k]; !ok {
				lineLayer[k] = r.Layer
				if !layerSeen[r.Layer] {
					layerSeen[r.Layer] = true
					layerOrder = append(layerOrder, r.Layer)
				}
			}
		}
		lo := r.Addr
		hi := r.Addr + uint64(r.Size)
		for b := lo; b < hi; b++ {
			if r.Kind == IFetch {
				bytes[classCode][b] = true
			} else if written[b>>shift] {
				bytes[classMutable][b] = true
			} else {
				bytes[classRO][b] = true
			}
		}
	}

	a := &Analysis{LineSize: lineSize}
	mkSet := func(c classID) ClassSet {
		return ClassSet{
			Lines:        len(lines[c]),
			Bytes:        len(lines[c]) * lineSize,
			TouchedBytes: len(bytes[c]),
		}
	}
	a.Code = mkSet(classCode)
	a.ReadOnly = mkSet(classRO)
	a.Mutable = mkSet(classMutable)

	// Table 1 rows.
	counts := make(map[string]*LayerSet)
	//lint:ignore determinism sums into per-layer counts, which are read out in layerOrder below
	for k, layer := range lineLayer {
		ls := counts[layer]
		if ls == nil {
			ls = &LayerSet{Layer: layer}
			counts[layer] = ls
		}
		switch k.class {
		case classCode:
			ls.Code += lineSize
		case classRO:
			ls.ReadOnly += lineSize
		case classMutable:
			ls.Mutable += lineSize
		}
	}
	for _, layer := range layerOrder {
		a.PerLayer = append(a.PerLayer, *counts[layer])
	}

	// Phase summaries.
	for p, name := range t.Phases {
		a.Phases = append(a.Phases, PhaseSummary{
			Name:       name,
			CodeBytes:  len(phaseLines[p][classCode]) * lineSize,
			CodeRefs:   phaseRefs[p][classCode],
			ReadBytes:  len(phaseLines[p][classRO]) * lineSize,
			ReadRefs:   phaseRefs[p][classRO],
			WriteBytes: len(phaseLines[p][classMutable]) * lineSize,
			WriteRefs:  phaseRefs[p][classMutable],
		})
	}

	// Figure 1 function map.
	a.CodeByPhaseFunc = make([][]FuncTouch, len(t.Phases))
	for p := range t.Phases {
		var fts []FuncTouch
		//lint:ignore determinism fts is sorted below by (Bytes, Func), a total order since Func is the key
		for fn, ls := range funcLines[p] {
			fts = append(fts, FuncTouch{Func: fn, Bytes: len(ls) * lineSize, Refs: funcRefs[p][fn]})
		}
		sort.Slice(fts, func(i, j int) bool {
			if fts[i].Bytes != fts[j].Bytes {
				return fts[i].Bytes > fts[j].Bytes
			}
			return fts[i].Func < fts[j].Func
		})
		a.CodeByPhaseFunc[p] = fts
	}
	return a
}

// LineSizeDelta is one cell pair of Table 3: the percentage change in
// working-set bytes and lines at some line size, relative to the 32-byte
// baseline.
type LineSizeDelta struct {
	LineSize   int
	BytesDelta float64 // e.g. +0.17 for +17%
	LinesDelta float64
}

// ClassSweep is the Table 3 sweep for one class.
type ClassSweep struct {
	Class  string
	Deltas []LineSizeDelta
}

// LineSweep analyzes the trace at each line size and reports Table 3:
// per-class percentage changes vs the 32-byte baseline. Line sizes smaller
// than the machine word (8 bytes on the Alpha) are infeasible for data
// caches; the paper marks them N/A and so do callers — this function just
// computes.
func LineSweep(t *Trace, lineSizes []int) []ClassSweep {
	base := Analyze(t, 32)
	baseSets := []ClassSet{base.Code, base.ReadOnly, base.Mutable}
	names := []string{"Code", "Read-only Data", "Mutable Data"}
	sweeps := make([]ClassSweep, 3)
	for i := range sweeps {
		sweeps[i].Class = names[i]
	}
	for _, ls := range lineSizes {
		a := Analyze(t, ls)
		sets := []ClassSet{a.Code, a.ReadOnly, a.Mutable}
		for i := range sweeps {
			d := LineSizeDelta{LineSize: ls}
			if baseSets[i].Bytes > 0 {
				d.BytesDelta = float64(sets[i].Bytes)/float64(baseSets[i].Bytes) - 1
			}
			if baseSets[i].Lines > 0 {
				d.LinesDelta = float64(sets[i].Lines)/float64(baseSets[i].Lines) - 1
			}
			sweeps[i].Deltas = append(sweeps[i].Deltas, d)
		}
	}
	return sweeps
}

// PhaseOverlap reports, for each pair of phases, how many bytes of code
// (line-granular) the two phases share. The paper's Figure 1 margins sum
// to more than the Table 1 union precisely because of this sharing
// (kernel entry/exit, buffer management and timing code run in more than
// one phase); this quantifies it.
func PhaseOverlap(t *Trace, lineSize int) [][]int {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("memtrace: line size %d is not a positive power of two", lineSize))
	}
	shift := uint(0)
	for 1<<shift != lineSize {
		shift++
	}
	perPhase := make([]map[uint64]bool, len(t.Phases))
	for i := range perPhase {
		perPhase[i] = make(map[uint64]bool)
	}
	for i := range t.Records {
		r := &t.Records[i]
		if r.Kind != IFetch || r.Excluded {
			continue
		}
		first := r.Addr >> shift
		last := (r.Addr + uint64(r.Size) - 1) >> shift
		for line := first; line <= last; line++ {
			perPhase[r.Phase][line] = true
		}
	}
	n := len(t.Phases)
	out := make([][]int, n)
	for i := range out {
		out[i] = make([]int, n)
		for j := range out[i] {
			if i == j {
				out[i][j] = len(perPhase[i]) * lineSize
				continue
			}
			shared := 0
			//lint:ignore determinism a count: every line is visited once whatever the order
			for line := range perPhase[i] {
				if perPhase[j][line] {
					shared++
				}
			}
			out[i][j] = shared * lineSize
		}
	}
	return out
}
