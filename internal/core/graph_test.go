package core

import (
	"fmt"
	"strings"
	"testing"
)

const tcpIPSpec = `
# the netstack's receive graph
device > ether > ip
ip > tcp, udp, icmp
tcp > socket
udp > socket
icmp > socket
`

func TestParseGraphTopology(t *testing.T) {
	g, err := ParseGraph(tcpIPSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Order) != 7 {
		t.Fatalf("layers = %d, want 7: %v", len(g.Order), g.Order)
	}
	if g.Order[0] != "device" {
		t.Errorf("bottom layer = %q, want device", g.Order[0])
	}
	if g.Order[len(g.Order)-1] != "socket" {
		t.Errorf("top layer = %q, want socket", g.Order[len(g.Order)-1])
	}
	// Every edge must point forward in the order.
	pos := map[string]int{}
	for i, n := range g.Order {
		pos[n] = i
	}
	for _, e := range g.Edges {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %v does not point upward in %v", e, g.Order)
		}
	}
	if len(g.Edges) != 8 {
		t.Errorf("edges = %d, want 8", len(g.Edges))
	}
}

func TestParseGraphErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"no arrow":     "device ether",
		"self edge":    "a > a",
		"cycle":        "a > b\nb > c\nc > b",
		"two bottoms":  "a > c\nb > c",
		"empty name":   "a > , b",
		"only comment": "# nothing here",
	}
	for name, spec := range cases {
		if _, err := ParseGraph(spec); err == nil {
			t.Errorf("%s: spec %q should fail", name, spec)
		}
	}
}

func TestParseGraphDeduplicatesEdges(t *testing.T) {
	g, err := ParseGraph("a > b\na > b")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 1 {
		t.Errorf("edges = %d, want deduplicated 1", len(g.Edges))
	}
}

func TestBuildStackRunsTheGraph(t *testing.T) {
	var order []string
	handlers := map[string]Handler[int]{}
	var layers map[string]*Layer[int]
	mk := func(name string, nexts ...string) Handler[int] {
		return func(m int, emit Emit[int]) {
			order = append(order, fmt.Sprintf("%s:%d", name, m))
			if len(nexts) == 0 {
				emit(nil, m)
				return
			}
			emit(layers[nexts[m%len(nexts)]], m)
		}
	}
	handlers["device"] = mk("device", "ether")
	handlers["ether"] = mk("ether", "ip")
	handlers["ip"] = mk("ip", "udp", "tcp") // demux by parity
	handlers["tcp"] = mk("tcp", "socket")
	handlers["udp"] = mk("udp", "socket")
	handlers["icmp"] = mk("icmp", "socket")
	handlers["socket"] = mk("socket")

	s, ls, err := BuildStack(Options{Discipline: LDLP}, tcpIPSpec, handlers)
	if err != nil {
		t.Fatal(err)
	}
	layers = ls
	for m := 0; m < 4; m++ {
		if err := s.Inject(m); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Run(); n != 4 {
		t.Fatalf("delivered %d, want 4", n)
	}
	joined := strings.Join(order, " ")
	// Blocked order: all device, all ether, all ip; then the *higher*
	// priority branch (udp was declared after tcp in "tcp, udp, icmp"?
	// priority follows topological order) drains before the lower.
	if !strings.HasPrefix(joined, "device:0 device:1 device:2 device:3 ether:0") {
		t.Errorf("not blocked at the bottom: %s", joined)
	}
	if strings.Count(joined, "socket:") != 4 {
		t.Errorf("socket did not see all messages: %s", joined)
	}
	// Parity demux: evens through udp, odds through tcp.
	if !strings.Contains(joined, "udp:0") || !strings.Contains(joined, "tcp:1") {
		t.Errorf("demux wrong: %s", joined)
	}
}

func TestBuildStackHandlerValidation(t *testing.T) {
	handlers := map[string]Handler[int]{
		"a": func(int, Emit[int]) {},
	}
	if _, _, err := BuildStack(Options{}, "a > b", handlers); err == nil {
		t.Error("missing handler should fail")
	}
	handlers["b"] = func(int, Emit[int]) {}
	handlers["ghost"] = func(int, Emit[int]) {}
	if _, _, err := BuildStack(Options{}, "a > b", handlers); err == nil {
		t.Error("handler for unknown layer should fail")
	}
	delete(handlers, "ghost")
	if _, _, err := BuildStack(Options{}, "a > b", handlers); err != nil {
		t.Errorf("valid build failed: %v", err)
	}
}

func TestGraphPriorityMatchesTopology(t *testing.T) {
	// In a diamond a > {b, c} > d, layer d must drain before b and c,
	// and both before a's next batch — verified through processing order
	// with a batch limit.
	var order []string
	var layers map[string]*Layer[string]
	h := func(name string, next func(string) string) Handler[string] {
		return func(m string, emit Emit[string]) {
			order = append(order, name+":"+m)
			if next == nil {
				emit(nil, m)
				return
			}
			emit(layers[next(m)], m)
		}
	}
	handlers := map[string]Handler[string]{
		"a": h("a", func(m string) string {
			if m < "n" {
				return "b"
			}
			return "c"
		}),
		"b": h("b", func(string) string { return "d" }),
		"c": h("c", func(string) string { return "d" }),
		"d": h("d", nil),
	}
	s, ls, err := BuildStack(Options{Discipline: LDLP}, "a > b, c\nb > d\nc > d", handlers)
	if err != nil {
		t.Fatal(err)
	}
	layers = ls
	s.Inject("m1")
	s.Inject("z1")
	s.Run()
	// After a drains both, the scheduler runs the highest nonempty layer:
	// c (z1) then... priority: d highest. Expected: a:m1 a:z1, then c:z1
	// (c above b), then d:z1, then b:m1, d:m1.
	want := "a:m1 a:z1 c:z1 d:z1 b:m1 d:m1"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
}

// TestBuildStackBeyondOneBitsetWord builds a 150-layer graph — a chain
// with one diamond up at layers 100–103, past the first and second
// 64-bit words of the link and pending bitsets — and checks it schedules
// like any other stack: blocked at the bottom, the diamond's higher
// branch first, everything delivered, and an emit across a missing link
// between two high layers still panics.
func TestBuildStackBeyondOneBitsetWord(t *testing.T) {
	const n = 150
	name := func(i int) string { return fmt.Sprintf("l%03d", i) }
	var spec strings.Builder
	for i := 0; i+1 < n; i++ {
		switch i {
		case 100: // l100 > l101, l102 ; both > l103
			fmt.Fprintf(&spec, "%s > %s, %s\n", name(100), name(101), name(102))
		case 101:
			fmt.Fprintf(&spec, "%s > %s\n", name(101), name(103))
		default:
			fmt.Fprintf(&spec, "%s > %s\n", name(i), name(i+1))
		}
	}
	var order []string
	var layers map[string]*Layer[int]
	skip := false // when set, l110 emits to l112, which it has no link to
	handlers := map[string]Handler[int]{}
	for i := 0; i < n; i++ {
		i := i
		handlers[name(i)] = func(m int, emit Emit[int]) {
			if i == 0 || i >= 100 && i <= 103 {
				order = append(order, fmt.Sprintf("%d:%d", i, m))
			}
			switch {
			case i == n-1:
				emit(nil, m)
			case i == 100:
				emit(layers[name(101+m%2)], m)
			case i == 101:
				emit(layers[name(103)], m)
			case i == 110 && skip:
				emit(layers[name(112)], m)
			default:
				emit(layers[name(i+1)], m)
			}
		}
	}
	s, ls, err := BuildStack(Options{Discipline: LDLP, BatchLimit: 2}, spec.String(), handlers)
	if err != nil {
		t.Fatal(err)
	}
	layers = ls
	for m := 0; m < 3; m++ {
		if err := s.Inject(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Run(); got != 3 {
		t.Fatalf("delivered %d, want 3", got)
	}
	// Batch limit 2: messages 0 and 1 climb together, 2 follows. At the
	// diamond l102 (message 1) outranks l101 (message 0).
	want := "0:0 0:1 100:0 100:1 102:1 103:1 101:0 103:0 0:2 100:2 101:2 103:2"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order = %q\nwant    %q", got, want)
	}
	if st := s.Stats(); st.Processed != 3*(n-1) || st.LargestBatch != 2 || s.Pending() != 0 {
		t.Errorf("stats = %+v pending %d, want %d processed, largest batch 2, none pending", st, s.Pending(), 3*(n-1))
	}

	skip = true
	defer func() {
		if recover() == nil {
			t.Error("emit across a missing link between high layers should panic")
		}
	}()
	_ = s.Inject(0)
	s.Run()
}
