package louvain

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cad/internal/tsg"
)

// edgeSet is a mutable undirected test graph; graph freezes it into a TSG.
type edgeSet map[[2]int]float64

func pair(u, v int) [2]int { return [2]int{min(u, v), max(u, v)} }

func (s edgeSet) set(u, v int, w float64) { s[pair(u, v)] = w }
func (s edgeSet) del(u, v int)            { delete(s, pair(u, v)) }
func (s edgeSet) has(u, v int) bool {
	_, ok := s[pair(u, v)]
	return ok
}

func (s edgeSet) graph(n int) *tsg.Graph {
	edges := make([]tsg.Edge, 0, len(s))
	for p, w := range s {
		edges = append(edges, tsg.Edge{U: p[0], V: p[1], W: w})
	}
	return tsg.FromEdges(n, edges)
}

// twoCliqueEdges is two dense cliques of the given sizes joined by one weak
// bridge edge.
func twoCliqueEdges(a, b int, bridge float64) edgeSet {
	s := edgeSet{}
	for i := 0; i < a; i++ {
		for j := i + 1; j < a; j++ {
			s.set(i, j, 1)
		}
	}
	for i := a; i < a+b; i++ {
		for j := i + 1; j < a+b; j++ {
			s.set(i, j, 1)
		}
	}
	if bridge > 0 {
		s.set(0, a, bridge)
	}
	return s
}

func twoCliques(a, b int, bridge float64) *tsg.Graph {
	return twoCliqueEdges(a, b, bridge).graph(a + b)
}

// randomEdges draws each pair of n vertices as an edge with probability p,
// weighted by weight.
func randomEdges(rng *rand.Rand, n int, p float64, weight func() float64) edgeSet {
	s := edgeSet{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				s.set(i, j, weight())
			}
		}
	}
	return s
}

func TestTwoCliques(t *testing.T) {
	g := twoCliques(5, 5, 0.1)
	p := Communities(g)
	if p.Count != 2 {
		t.Fatalf("Count = %d, want 2 (partition %v)", p.Count, p.Of)
	}
	for i := 1; i < 5; i++ {
		if !p.Same(0, i) {
			t.Errorf("vertices 0 and %d should share a community", i)
		}
	}
	for i := 6; i < 10; i++ {
		if !p.Same(5, i) {
			t.Errorf("vertices 5 and %d should share a community", i)
		}
	}
	if p.Same(0, 5) {
		t.Error("cliques should separate")
	}
}

func TestThreeCliques(t *testing.T) {
	s := edgeSet{}
	for c := 0; c < 3; c++ {
		base := c * 4
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				s.set(base+i, base+j, 0.9)
			}
		}
	}
	s.set(0, 4, 0.1)
	s.set(4, 8, 0.1)
	p := Communities(s.graph(12))
	if p.Count != 3 {
		t.Fatalf("Count = %d, want 3 (%v)", p.Count, p.Of)
	}
	members := p.Members()
	sizes := []int{len(members[0]), len(members[1]), len(members[2])}
	for _, s := range sizes {
		if s != 4 {
			t.Errorf("community sizes = %v, want all 4", sizes)
		}
	}
}

func TestEdgelessGraph(t *testing.T) {
	p := Communities(tsg.FromEdges(4, nil))
	if p.Count != 4 {
		t.Fatalf("edgeless graph: Count = %d, want 4 singletons", p.Count)
	}
	for v, c := range p.Of {
		if c != v {
			t.Errorf("Of[%d] = %d, want singleton order", v, c)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	p := Communities(tsg.FromEdges(0, nil))
	if p.Count != 0 || len(p.Of) != 0 {
		t.Errorf("empty graph: %+v", p)
	}
}

func TestSingleEdge(t *testing.T) {
	p := Communities(tsg.FromEdges(2, []tsg.Edge{{U: 0, V: 1, W: 0.8}}))
	if p.Count != 1 || !p.Same(0, 1) {
		t.Errorf("single edge should merge: %+v", p)
	}
}

func TestNegativeWeightsUseStrength(t *testing.T) {
	// Strong negative correlations are strong relationships.
	p := Communities(tsg.FromEdges(4, []tsg.Edge{
		{U: 0, V: 1, W: -0.95},
		{U: 2, V: 3, W: -0.95},
		{U: 1, V: 2, W: 0.05},
	}))
	if !p.Same(0, 1) || !p.Same(2, 3) {
		t.Errorf("negatively-correlated pairs should cluster: %v", p.Of)
	}
	if p.Same(1, 2) {
		t.Errorf("weak bridge should not merge: %v", p.Of)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomEdges(rng, 30, 0.2, rng.Float64).graph(30)
	p1 := Communities(g)
	for trial := 0; trial < 5; trial++ {
		p2 := Communities(g)
		if p1.Count != p2.Count {
			t.Fatalf("non-deterministic community count: %d vs %d", p1.Count, p2.Count)
		}
		for v := range p1.Of {
			if p1.Of[v] != p2.Of[v] {
				t.Fatalf("non-deterministic assignment at vertex %d", v)
			}
		}
	}
}

func TestCanonicalIDs(t *testing.T) {
	g := twoCliques(3, 3, 0)
	p := Communities(g)
	// Community of vertex 0 must be id 0 (lowest member first).
	if p.Of[0] != 0 {
		t.Errorf("vertex 0 in community %d, want 0", p.Of[0])
	}
	if p.Of[3] != 1 {
		t.Errorf("vertex 3 in community %d, want 1", p.Of[3])
	}
}

// Property: partition is valid — ids compact in [0, Count), every vertex
// assigned, Members() is a disjoint cover; modularity of the found partition
// is at least that of the all-singleton partition.
func TestPartitionProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randomEdges(rng, n, 0.3, func() float64 { return rng.Float64()*2 - 1 }).graph(n)
		p := Communities(g)
		if len(p.Of) != n || p.Count < 1 && n > 0 {
			return false
		}
		seen := make([]bool, p.Count)
		for _, c := range p.Of {
			if c < 0 || c >= p.Count {
				return false
			}
			seen[c] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		total := 0
		for _, m := range p.Members() {
			total += len(m)
		}
		if total != n {
			return false
		}
		if g.Edges() > 0 {
			if Modularity(g, p) < Modularity(g, singletons(n))-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestModularity(t *testing.T) {
	g := twoCliques(4, 4, 0)
	good := Communities(g)
	if q := Modularity(g, good); q < 0.45 {
		t.Errorf("two-clique modularity = %v, want ≈ 0.5", q)
	}
	// All-in-one partition has Q = 0.
	all := Partition{Of: make([]int, 8), Count: 1}
	if q := Modularity(g, all); q > 1e-9 {
		t.Errorf("single-community modularity = %v, want 0", q)
	}
	if q := Modularity(tsg.FromEdges(3, nil), singletons(3)); q != 0 {
		t.Errorf("edgeless modularity = %v, want 0", q)
	}
}

func BenchmarkCommunities200(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := plantedGraph(rng)
	var ws Workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Communities(g)
	}
}

// plantedGraph is a planted partition: 10 groups of 20 vertices, dense
// inside a group and sparse across.
func plantedGraph(rng *rand.Rand) *tsg.Graph {
	s := edgeSet{}
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			p := 0.02
			if i/20 == j/20 {
				p = 0.5
			}
			if rng.Float64() < p {
				s.set(i, j, 0.5+0.5*rng.Float64())
			}
		}
	}
	return s.graph(200)
}
