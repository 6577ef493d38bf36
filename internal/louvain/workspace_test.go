package louvain

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cad/internal/tsg"
)

// TestWorkspaceAllocs pins the per-round cost of community detection on a
// reused workspace: a cold run and a warm run that keeps its seed allocate
// only the Partition they return.
func TestWorkspaceAllocs(t *testing.T) {
	g := plantedGraph(rand.New(rand.NewSource(5)))
	var ws Workspace
	cold := ws.Communities(g)
	if cold.Count < 2 {
		t.Fatalf("planted graph split into %d communities", cold.Count)
	}
	if allocs := testing.AllocsPerRun(20, func() { ws.Communities(g) }); allocs > 1 {
		t.Errorf("cold Communities allocates %v times, want 1 (the partition)", allocs)
	}
	if warm := ws.CommunitiesSeeded(g, cold); !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm %v, cold %v", warm.Of, cold.Of)
	}
	if allocs := testing.AllocsPerRun(20, func() { ws.CommunitiesSeeded(g, cold) }); allocs > 1 {
		t.Errorf("warm CommunitiesSeeded allocates %v times, want 1 (the partition)", allocs)
	}
}

// TestWorkspaceReuse drives one workspace through graphs of different
// sizes, edgeless graphs, isolated vertices and bad seeds, in an order that
// shrinks and grows every scratch buffer. Each result must equal the one a
// fresh workspace gives, so no scratch state leaks from one run into the
// next; and the graphs, which Louvain reads in place, must be left as they
// were.
func TestWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type run struct {
		name string
		g    *tsg.Graph
		seed *Partition // nil: cold
	}
	var runs []run
	add := func(name string, g *tsg.Graph) {
		cold := Communities(g)
		half := Partition{Of: make([]int, g.N()), Count: min(2, g.N())}
		for v := range half.Of {
			half.Of[v] = v % 2
		}
		runs = append(runs,
			run{name + "/cold", g, nil},
			run{name + "/warm", g, &cold},
			run{name + "/halves", g, &half},
			run{name + "/empty", g, &Partition{}},
			run{name + "/short", g, &Partition{Of: []int{0}, Count: 1}},
			run{name + "/outOfRange", g, &Partition{Of: append(make([]int, max(g.N()-1, 0)), g.N()), Count: 1}},
		)
	}
	add("planted200", plantedGraph(rng))
	add("edgeless7", tsg.FromEdges(7, nil))
	add("single", tsg.FromEdges(1, nil))
	add("empty", tsg.FromEdges(0, nil))
	add("twoCliques", twoCliques(6, 4, 0.2))
	for _, n := range []int{3, 40, 12, 90} {
		es := randomGraph(rng, n, 0.3)
		for v := 0; v < n; v += 3 { // isolate every third vertex
			for u := 0; u < n; u++ {
				es.del(u, v)
			}
		}
		add(fmt.Sprintf("isolated%d", n), es.graph(n))
		add(fmt.Sprintf("random%d", n), randomGraph(rng, n, 0.15).graph(n))
	}
	// A graph whose only weights are zero is edgeless to Louvain.
	add("zeroWeights", tsg.FromEdges(5, []tsg.Edge{{U: 0, V: 1}, {U: 2, V: 3}}))

	type arrays struct {
		off, nbr []int
		w        []float64
	}
	before := make(map[*tsg.Graph]arrays)
	for _, r := range runs {
		off, nbr, w := r.g.CSR()
		before[r.g] = arrays{slices.Clone(off), slices.Clone(nbr), slices.Clone(w)}
	}
	var ws Workspace
	for pass := 0; pass < 2; pass++ {
		rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
		for _, r := range runs {
			var got, want Partition
			if r.seed == nil {
				got, want = ws.Communities(r.g), Communities(r.g)
			} else {
				got, want = ws.CommunitiesSeeded(r.g, *r.seed), CommunitiesSeeded(r.g, *r.seed)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d, %s: reused workspace %v (count %d), fresh %v (count %d)",
					pass, r.name, got.Of, got.Count, want.Of, want.Count)
			}
		}
	}
	for _, r := range runs {
		off, nbr, w := r.g.CSR()
		if !reflect.DeepEqual(arrays{off, nbr, w}, before[r.g]) {
			t.Fatalf("%s: community detection modified the graph", r.name)
		}
	}
}
