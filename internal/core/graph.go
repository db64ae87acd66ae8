package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Protocol-graph configuration in the x-kernel tradition (the paper's
// §1.1 cites Hutchinson & Peterson's x-kernel as the richer successor to
// mbufs): a stack is described declaratively as a graph of named layers,
// and the engine wires queues and priorities from the description.
//
// Spec syntax, one edge list per line ('#' comments allowed):
//
//	device > ether
//	ether > ip
//	ip > tcp, udp      # fan-out: both are directly above ip
//	tcp > socket
//	udp > socket
//
// Chains are allowed: "device > ether > ip". Layer priority (which LDLP's
// run-to-completion scheduler needs) is derived by topological order, with
// the graph's unique source becoming the injection point.

// GraphSpec is a parsed protocol graph.
type GraphSpec struct {
	// Order lists layer names bottom-up (a valid topological order).
	Order []string
	// Edges lists lower->upper pairs.
	Edges [][2]string
}

// ParseGraph parses a spec. It rejects cycles, self-edges and graphs with
// no unique bottom layer.
func ParseGraph(spec string) (*GraphSpec, error) {
	g := &GraphSpec{}
	seenEdge := map[[2]string]bool{}
	nodes := map[string]bool{}
	var nodeOrder []string
	addNode := func(n string) {
		if !nodes[n] {
			nodes[n] = true
			nodeOrder = append(nodeOrder, n)
		}
	}

	for lineNo, line := range strings.Split(spec, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		parts := strings.Split(line, ">")
		if len(parts) < 2 {
			return nil, fmt.Errorf("core: graph line %d: %q has no '>'", lineNo+1, line)
		}
		// Each ">" joins the previous segment's layers to the next
		// segment's layers (segments may be comma lists).
		prev, err := parseNames(parts[0], lineNo)
		if err != nil {
			return nil, err
		}
		for _, seg := range parts[1:] {
			cur, err := parseNames(seg, lineNo)
			if err != nil {
				return nil, err
			}
			for _, lo := range prev {
				addNode(lo)
				for _, hi := range cur {
					addNode(hi)
					if lo == hi {
						return nil, fmt.Errorf("core: graph line %d: self-edge %q", lineNo+1, lo)
					}
					e := [2]string{lo, hi}
					if !seenEdge[e] {
						seenEdge[e] = true
						g.Edges = append(g.Edges, e)
					}
				}
			}
			prev = cur
		}
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("core: empty graph spec")
	}

	// Topological sort (Kahn), deterministic by first-appearance order.
	indeg := map[string]int{}
	uppers := map[string][]string{}
	for _, e := range g.Edges {
		indeg[e[1]]++
		uppers[e[0]] = append(uppers[e[0]], e[1])
	}
	var ready []string
	for _, n := range nodeOrder {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	if len(ready) != 1 {
		return nil, fmt.Errorf("core: graph needs exactly one bottom layer (injection point), found %d: %v",
			len(ready), ready)
	}
	pos := map[string]int{}
	for i, n := range nodeOrder {
		pos[n] = i
	}
	for len(ready) > 0 {
		// Pop the earliest-declared ready node for determinism.
		sort.Slice(ready, func(i, j int) bool { return pos[ready[i]] < pos[ready[j]] })
		n := ready[0]
		ready = ready[1:]
		g.Order = append(g.Order, n)
		for _, u := range uppers[n] {
			indeg[u]--
			if indeg[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	if len(g.Order) != len(nodes) {
		return nil, fmt.Errorf("core: graph has a cycle")
	}
	return g, nil
}

func parseNames(seg string, lineNo int) ([]string, error) {
	var out []string
	for _, raw := range strings.Split(seg, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			return nil, fmt.Errorf("core: graph line %d: empty layer name", lineNo+1)
		}
		out = append(out, name)
	}
	return out, nil
}

// BuildStack assembles a Stack from a graph spec and a handler per layer.
// It returns the stack and the layers by name (for use inside handlers:
// emit to layers[name]).
func BuildStack[M any](opts Options, spec string, handlers map[string]Handler[M]) (*Stack[M], map[string]*Layer[M], error) {
	g, err := ParseGraph(spec)
	if err != nil {
		return nil, nil, err
	}
	s := NewStack[M](opts)
	byName, err := populate(s, g, handlers)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	if len(handlers) != len(g.Order) {
		for _, name := range slices.Sorted(maps.Keys(handlers)) {
			if !slices.Contains(g.Order, name) {
				return nil, nil, fmt.Errorf("core: handler for unknown layer %q", name)
			}
		}
	}
	return s, byName, nil
}

// populate is the build step BuildStack and BuildShardedStack share:
// check every layer of g has a handler (before touching s), add the
// layers bottom-up in g.Order, link every edge; returns them by name.
func populate[M any](s *Stack[M], g *GraphSpec, handlers map[string]Handler[M]) (map[string]*Layer[M], error) {
	for _, name := range g.Order {
		if handlers[name] == nil {
			return nil, fmt.Errorf("no handler for layer %q", name)
		}
	}
	byName := make(map[string]*Layer[M], len(g.Order))
	for _, name := range g.Order {
		byName[name] = s.AddLayer(name, handlers[name])
	}
	for _, e := range g.Edges {
		s.Link(byName[e[0]], byName[e[1]])
	}
	return byName, nil
}
