package topo

import (
	"reflect"
	"testing"

	"monocle/internal/coloring"
)

func connected(g *coloring.Graph) bool {
	if g.N == 0 {
		return true
	}
	seen := make([]bool, g.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.N
}

func TestBasicFamilies(t *testing.T) {
	if g := Ring(10).Graph; g.Edges() != 10 || !connected(g) {
		t.Fatal("ring")
	}
	if g := Star(10).Graph; g.Edges() != 9 || g.MaxDegree() != 9 {
		t.Fatal("star")
	}
	if g := Tree(15, 2).Graph; g.Edges() != 14 || !connected(g) {
		t.Fatal("tree")
	}
	if g := Grid(3, 4).Graph; g.Edges() != 3*3+2*4 || !connected(g) {
		t.Fatal("grid")
	}
}

func TestRandomFamiliesConnectedAndDeterministic(t *testing.T) {
	w1 := Waxman(100, 0.4, 0.15, 7)
	w2 := Waxman(100, 0.4, 0.15, 7)
	if w1.Graph.Edges() != w2.Graph.Edges() {
		t.Fatal("Waxman not deterministic")
	}
	if !connected(w1.Graph) {
		t.Fatal("Waxman not connected")
	}
	pa := PreferentialAttachment(200, 2, 3)
	if !connected(pa.Graph) {
		t.Fatal("PA not connected")
	}
	er := SparseRandom(150, 3, 4)
	if !connected(er.Graph) {
		t.Fatal("ER not connected")
	}
}

func TestZooCorpusProfile(t *testing.T) {
	corpus := ZooCorpus()
	if len(corpus) != 261 {
		t.Fatalf("corpus size %d", len(corpus))
	}
	maxN, bigCount := 0, 0
	for _, tp := range corpus {
		if tp.Graph.N > maxN {
			maxN = tp.Graph.N
		}
		if tp.Graph.N > 150 {
			bigCount++
		}
		if tp.Graph.N > 0 && !connected(tp.Graph) {
			t.Fatalf("%s disconnected", tp.Name)
		}
	}
	if maxN < 300 || maxN > 760 {
		t.Fatalf("max size %d outside Zoo-like range", maxN)
	}
	if bigCount == 0 {
		t.Fatal("no large topologies in the tail")
	}
}

func TestRocketfuelCorpusProfile(t *testing.T) {
	corpus := RocketfuelCorpus()
	if len(corpus) != 10 {
		t.Fatalf("size %d", len(corpus))
	}
	if corpus[9].Graph.N != 11800 {
		t.Fatalf("largest %d", corpus[9].Graph.N)
	}
	for _, tp := range corpus {
		avgDeg := 2 * float64(tp.Graph.Edges()) / float64(tp.Graph.N)
		if avgDeg < 1.5 || avgDeg > 8 {
			t.Fatalf("%s avg degree %.1f not router-like", tp.Name, avgDeg)
		}
	}
}

func TestFatTreeStructure(t *testing.T) {
	ft := NewFatTree(4)
	if ft.N != 20 {
		t.Fatalf("k=4 fat tree must have 20 switches, got %d", ft.N)
	}
	if len(ft.Core) != 4 || len(ft.Agg) != 4 || len(ft.Edge) != 4 {
		t.Fatal("layer sizes")
	}
	if ft.Graph().Edges() != 32 { // 16 core-agg + 16 agg-edge
		t.Fatalf("edges %d", ft.Graph().Edges())
	}
	if !connected(ft.Graph()) {
		t.Fatal("disconnected")
	}
	if len(ft.EdgeSwitches()) != 8 {
		t.Fatal("edge switches")
	}
	// Each edge switch has a host port distinct from its uplinks.
	for _, e := range ft.EdgeSwitches() {
		hp, ok := ft.HostPort[e]
		if !ok || hp == 0 {
			t.Fatalf("no host port for edge %d", e)
		}
		for _, n := range ft.Neighbors(e) {
			if p, _ := ft.Port(e, n); p == hp {
				t.Fatal("host port collides with uplink")
			}
		}
	}
}

func TestFatTreePorts(t *testing.T) {
	ft := NewFatTree(4)
	u, v := ft.Agg[0][0], ft.Core[0]
	pu, ok1 := ft.Port(u, v)
	pv, ok2 := ft.Port(v, u)
	if !ok1 || !ok2 || pu == 0 || pv == 0 {
		t.Fatal("port lookup")
	}
	if _, ok := ft.Port(ft.Core[0], ft.Core[1]); ok {
		t.Fatal("cores are not directly linked")
	}
}

func TestFatTreePath(t *testing.T) {
	ft := NewFatTree(4)
	edges := ft.EdgeSwitches()
	// Same pod: edge→agg→edge (3 hops).
	p := ft.Path(ft.Edge[0][0], ft.Edge[0][1])
	if len(p) != 3 {
		t.Fatalf("intra-pod path %v", p)
	}
	// Cross pod: edge→agg→core→agg→edge (5 hops).
	p = ft.Path(ft.Edge[0][0], ft.Edge[1][0])
	if len(p) != 5 {
		t.Fatalf("cross-pod path %v", p)
	}
	// Path endpoints and adjacency.
	for i := 0; i+1 < len(p); i++ {
		if _, ok := ft.Port(p[i], p[i+1]); !ok {
			t.Fatalf("path hop %d-%d not linked", p[i], p[i+1])
		}
	}
	if BFSPath(ft.Graph(), edges[0], edges[0])[0] != edges[0] {
		t.Fatal("self path")
	}
}

func TestFatTreePanicsOnOddK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewFatTree(3)
}

// TestPreferentialAttachmentRepeatable: the same arguments build the same
// graph, edge order included, on every call — Figure 9's coloring rows
// are computed from these graphs.
func TestPreferentialAttachmentRepeatable(t *testing.T) {
	want := PreferentialAttachment(300, 3, 7)
	for i := 0; i < 20; i++ {
		if got := PreferentialAttachment(300, 3, 7); !reflect.DeepEqual(got, want) {
			t.Fatalf("build %d differs from the first", i+1)
		}
	}
}
