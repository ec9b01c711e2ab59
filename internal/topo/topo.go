// Package topo provides network topologies: a FatTree builder for the
// §8.4 experiment, shortest-path routing, and deterministic synthetic
// topology corpora standing in for the Internet Topology Zoo (261 graphs,
// up to 754 switches) and Rocketfuel (10 graphs, up to ~11800 switches)
// used by Figure 9. The synthetic families (ring, tree, grid, Waxman-like
// geometric, preferential attachment, sparse Erdős–Rényi) span the same
// size range and sparsity regime as the real corpora, which is what the
// chromatic-number CDF depends on.
package topo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"monocle/internal/coloring"
)

// Topology is a named undirected graph.
type Topology struct {
	Name  string
	Graph *coloring.Graph
}

// Ring returns the n-cycle.
func Ring(n int) Topology {
	g := coloring.NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return Topology{Name: fmt.Sprintf("ring%d", n), Graph: g}
}

// Star returns a hub with n-1 leaves.
func Star(n int) Topology {
	g := coloring.NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return Topology{Name: fmt.Sprintf("star%d", n), Graph: g}
}

// Tree returns a complete b-ary tree with n vertices.
func Tree(n, b int) Topology {
	g := coloring.NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, (i-1)/b)
	}
	return Topology{Name: fmt.Sprintf("tree%d-%d", n, b), Graph: g}
}

// Grid returns an r×c mesh.
func Grid(r, c int) Topology {
	g := coloring.NewGraph(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j))
			}
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1))
			}
		}
	}
	return Topology{Name: fmt.Sprintf("grid%dx%d", r, c), Graph: g}
}

// Waxman returns a geometric random WAN-like graph: vertices in the unit
// square, edge probability decaying with distance, patched to be
// connected. This is the classic model for ISP-like topologies.
func Waxman(n int, alpha, beta float64, seed int64) Topology {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	g := coloring.NewGraph(n)
	maxD := math.Sqrt2
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
			if rng.Float64() < alpha*math.Exp(-d/(beta*maxD)) {
				g.AddEdge(i, j)
			}
		}
	}
	connect(g, rng)
	return Topology{Name: fmt.Sprintf("waxman%d-%d", n, seed), Graph: g}
}

// PreferentialAttachment returns a Barabási–Albert-style graph where each
// new vertex attaches to m existing ones with degree bias (hub-and-spoke
// ISP shapes).
func PreferentialAttachment(n, m int, seed int64) Topology {
	rng := rand.New(rand.NewSource(seed))
	g := coloring.NewGraph(n)
	var targets []int // degree-weighted multiset
	for v := 0; v < n; v++ {
		if v == 0 {
			targets = append(targets, 0)
			continue
		}
		k := m
		if v < m {
			k = v
		}
		chosen := map[int]bool{}
		for len(chosen) < k {
			w := targets[rng.Intn(len(targets))]
			if w != v {
				chosen[w] = true
			}
		}
		// Sorted, not map order: edge order and every later draw from
		// targets must not depend on map iteration.
		ws := make([]int, 0, k)
		for w := range chosen {
			ws = append(ws, w)
		}
		sort.Ints(ws)
		for _, w := range ws {
			g.AddEdge(v, w)
			targets = append(targets, w)
		}
		targets = append(targets, v)
	}
	return Topology{Name: fmt.Sprintf("pa%d-%d", n, seed), Graph: g}
}

// SparseRandom returns an Erdős–Rényi G(n, avgDeg/n) graph patched to be
// connected.
func SparseRandom(n int, avgDeg float64, seed int64) Topology {
	rng := rand.New(rand.NewSource(seed))
	g := coloring.NewGraph(n)
	p := avgDeg / float64(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	connect(g, rng)
	return Topology{Name: fmt.Sprintf("er%d-%d", n, seed), Graph: g}
}

// connect links each non-initial component to a random earlier vertex.
func connect(g *coloring.Graph, rng *rand.Rand) {
	seen := make([]bool, g.N)
	var stack []int
	visit := func(start int) {
		stack = append(stack[:0], start)
		seen[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(v) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	if g.N == 0 {
		return
	}
	visit(0)
	for v := 1; v < g.N; v++ {
		if !seen[v] {
			g.AddEdge(v, rng.Intn(v))
			visit(v)
		}
	}
}

// ZooCorpus generates 261 synthetic topologies with the Topology Zoo's
// size profile: mostly tens of switches, a tail up to 754.
func ZooCorpus() []Topology {
	var out []Topology
	rng := rand.New(rand.NewSource(2015))
	for i := 0; i < 261; i++ {
		// Zoo sizes: median ~20, max 754.
		var n int
		switch {
		case i%20 == 19:
			n = 150 + rng.Intn(605) // tail up to 754
		case i%5 == 4:
			n = 50 + rng.Intn(100)
		default:
			n = 5 + rng.Intn(45)
		}
		seed := int64(1000 + i)
		switch i % 6 {
		case 0:
			out = append(out, Ring(n))
		case 1:
			out = append(out, Tree(n, 2+rng.Intn(3)))
		case 2:
			out = append(out, Waxman(n, 0.4, 0.15, seed))
		case 3:
			out = append(out, PreferentialAttachment(n, 1+rng.Intn(2), seed))
		case 4:
			out = append(out, SparseRandom(n, 2.5+rng.Float64(), seed))
		default:
			r := 2 + rng.Intn(8)
			out = append(out, Grid(r, (n+r-1)/r))
		}
	}
	return out
}

// RocketfuelCorpus generates 10 large ISP-scale topologies up to ~11800
// switches (router-level graphs are sparse, degree ≈ 2–4, with hubs).
func RocketfuelCorpus() []Topology {
	sizes := []int{315, 604, 960, 1300, 2100, 3000, 4500, 7000, 10200, 11800}
	var out []Topology
	for i, n := range sizes {
		seed := int64(9000 + i)
		if i%2 == 0 {
			out = append(out, PreferentialAttachment(n, 2, seed))
		} else {
			out = append(out, SparseRandom(n, 3.0, seed))
		}
		out[len(out)-1].Name = fmt.Sprintf("rocketfuel%d", n)
	}
	return out
}
