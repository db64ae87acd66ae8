package fleet

import (
	"fmt"
	"math"
	"sort"

	"ldlp/internal/faults"
)

// Topology is an undirected peer graph: who gossips with whom. All
// builders produce sorted adjacency lists, so iteration order — and
// therefore every downstream send schedule — is deterministic.
type Topology struct {
	name  string
	peers [][]int32
}

// N returns the node count.
func (t *Topology) N() int { return len(t.peers) }

// Name identifies the builder and its parameters (for figures and logs).
func (t *Topology) Name() string { return t.name }

// Peers returns node i's sorted adjacency list. Callers must not
// mutate it.
func (t *Topology) Peers(i int) []int32 { return t.peers[i] }

// MinDegree returns the smallest adjacency list size — the bound that
// decides whether a gossip threshold is satisfiable everywhere.
func (t *Topology) MinDegree() int {
	min := math.MaxInt
	for _, p := range t.peers {
		if len(p) < min {
			min = len(p)
		}
	}
	return min
}

func sortPeers(peers [][]int32) {
	for _, p := range peers {
		sort.Slice(p, func(a, b int) bool { return p[a] < p[b] })
	}
}

func hasPeer(p []int32, v int32) bool {
	for _, x := range p {
		if x == v {
			return true
		}
	}
	return false
}

// FullMesh connects every pair of nodes.
func FullMesh(n int) *Topology {
	if n < 2 {
		panic(fmt.Sprintf("fleet: full mesh needs >= 2 nodes, got %d", n))
	}
	peers := make([][]int32, n)
	for i := range peers {
		p := make([]int32, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				p = append(p, int32(j))
			}
		}
		peers[i] = p
	}
	return &Topology{name: fmt.Sprintf("mesh(%d)", n), peers: peers}
}

// Ring connects each node to its k nearest neighbours on each side
// (degree 2k), the regular lattice small-world rewiring starts from.
func Ring(n, k int) *Topology {
	if n < 3 || k < 1 || 2*k >= n {
		panic(fmt.Sprintf("fleet: invalid ring n=%d k=%d", n, k))
	}
	peers := make([][]int32, n)
	for i := range peers {
		p := make([]int32, 0, 2*k)
		for d := 1; d <= k; d++ {
			p = append(p, int32((i+d)%n), int32((i-d+n)%n))
		}
		peers[i] = p
	}
	sortPeers(peers)
	return &Topology{name: fmt.Sprintf("ring(%d,%d)", n, k), peers: peers}
}

// Torus is a rows x cols grid with wraparound, 4 neighbours per node.
func Torus(rows, cols int) *Topology {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("fleet: torus needs >= 3x3, got %dx%d", rows, cols))
	}
	n := rows * cols
	peers := make([][]int32, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			peers[i] = []int32{
				int32(((r+1)%rows)*cols + c),
				int32(((r-1+rows)%rows)*cols + c),
				int32(r*cols + (c+1)%cols),
				int32(r*cols + (c-1+cols)%cols),
			}
		}
	}
	sortPeers(peers)
	return &Topology{name: fmt.Sprintf("torus(%dx%d)", rows, cols), peers: peers}
}

// SmallWorld is a Watts–Strogatz graph: Ring(n, k) with each forward
// edge rewired to a uniform random target with probability beta. The
// rewiring draws from a private faults.Stream seeded by the caller,
// so the same (n, k, beta, seed) always yields the same graph.
func SmallWorld(n, k int, beta float64, seed int64) *Topology {
	if beta < 0 || beta > 1 {
		panic(fmt.Sprintf("fleet: rewiring probability %v outside [0,1]", beta))
	}
	t := Ring(n, k)
	rng := faults.NewStream(uint64(seed) ^ 0x5ca1ab1e)
	for i := 0; i < n; i++ {
		for d := 1; d <= k; d++ {
			if rng.Float64() >= beta {
				continue
			}
			old := int32((i + d) % n)
			// Draw a fresh target that is not self, not already a peer.
			nt := int32(rng.Intn(n))
			for nt == int32(i) || hasPeer(t.peers[i], nt) {
				nt = int32(rng.Intn(n))
			}
			t.peers[i] = replacePeer(t.peers[i], old, nt)
			t.peers[old] = removePeer(t.peers[old], int32(i))
			t.peers[nt] = append(t.peers[nt], int32(i))
		}
	}
	sortPeers(t.peers)
	t.name = fmt.Sprintf("smallworld(%d,%d,%v)", n, k, beta)
	return t
}

func replacePeer(p []int32, old, nu int32) []int32 {
	for i, v := range p {
		if v == old {
			p[i] = nu
			return p
		}
	}
	return append(p, nu)
}

func removePeer(p []int32, v int32) []int32 {
	for i, x := range p {
		if x == v {
			return append(p[:i], p[i+1:]...)
		}
	}
	return p
}
