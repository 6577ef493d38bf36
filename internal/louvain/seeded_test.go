package louvain

import (
	"math/rand"
	"reflect"
	"testing"

	"cad/internal/tsg"
)

// randomGraph builds a random weighted graph over n vertices with the given
// edge probability.
func randomGraph(rng *rand.Rand, n int, p float64) edgeSet {
	return randomEdges(rng, n, p, func() float64 { return 0.2 + 0.8*rng.Float64() })
}

// TestSeededUnchangedGraphEqualsCold is the warm-start contract: seeding
// with the cold result on the very same graph must return the same
// communities. This holds by construction — either the cold partition is
// vertex-level stable (no moves, seed returned) or it is not (moves force a
// cold rerun) — and the test pins it across structured and random graphs.
func TestSeededUnchangedGraphEqualsCold(t *testing.T) {
	graphs := map[string]*tsg.Graph{
		"twoCliques":   twoCliques(5, 5, 0.1),
		"twoCliques73": twoCliques(7, 3, 0.3),
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		graphs["random"+string(rune('0'+i))] = randomGraph(rng, 24, 0.2).graph(24)
	}
	for name, g := range graphs {
		cold := Communities(g)
		warm := CommunitiesSeeded(g, cold)
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("%s: warm %v (count %d), cold %v (count %d)",
				name, warm.Of, warm.Count, cold.Of, cold.Count)
		}
	}
}

// TestSeededPerturbedGraphConverges perturbs a graph after seeding and
// checks the warm start converges to a sensible partition — in particular
// that it terminates (the historical hazard of seeded local moving is an
// infinite refinement loop) and matches the cold result when the
// perturbation forces the fallback.
func TestSeededPerturbedGraphConverges(t *testing.T) {
	g := twoCliques(5, 5, 0.1)
	seed := Communities(g)

	// Perturbation 1: merge the cliques with a heavy bridge — the seed is
	// no longer optimal, so moves happen and the cold path takes over.
	bridged := twoCliqueEdges(5, 5, 0)
	for i := 0; i < 5; i++ {
		bridged.set(i, 5+i, 1)
		bridged.set(i, 5+(i+1)%5, 1)
	}
	merged := bridged.graph(10)
	warm := CommunitiesSeeded(merged, seed)
	cold := Communities(merged)
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("merged: warm %v, cold %v", warm.Of, cold.Of)
	}

	// Perturbation 2: vertex 0 loses every edge. The warm start must not
	// leave it grouped with its old clique — an isolated vertex generates
	// no modularity gain to move anywhere, so without the explicit split
	// it would silently keep its stale membership.
	cut := twoCliqueEdges(5, 5, 0)
	for v := 1; v < 5; v++ {
		cut.del(0, v)
	}
	isolated := cut.graph(10)
	warm = CommunitiesSeeded(isolated, seed)
	for v := 1; v < 10; v++ {
		if warm.Same(0, v) {
			t.Fatalf("isolated vertex still shares a community with %d: %v", v, warm.Of)
		}
	}
	cold = Communities(isolated)
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("isolated: warm %v, cold %v", warm.Of, cold.Of)
	}
}

// TestSeededRandomPerturbations fuzzes the warm path: random graph, random
// edge flips, warm vs cold. Decisions downstream only stay aligned if the
// warm result is a genuine modularity local optimum, so at minimum the
// partition must be valid and the call must terminate; where the fallback
// fires the result must equal cold exactly.
func TestSeededRandomPerturbations(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 30; iter++ {
		es := randomGraph(rng, 20, 0.25)
		seed := Communities(es.graph(20))
		// Flip a few edges.
		for f := 0; f < 4; f++ {
			u, v := rng.Intn(20), rng.Intn(20)
			if u == v {
				continue
			}
			if es.has(u, v) {
				es.del(u, v)
			} else {
				es.set(u, v, 0.2+0.8*rng.Float64())
			}
		}
		warm := CommunitiesSeeded(es.graph(20), seed)
		if len(warm.Of) != 20 || warm.Count < 1 || warm.Count > 20 {
			t.Fatalf("iter %d: invalid partition %v", iter, warm)
		}
		for _, c := range warm.Of {
			if c < 0 || c >= warm.Count {
				t.Fatalf("iter %d: community id %d out of range [0,%d)", iter, c, warm.Count)
			}
		}
	}
}

// TestSeededInvalidSeedFallsBack: wrong-size or empty seeds, and seeds with
// ids outside [0, n), must not panic and must give the cold result.
func TestSeededInvalidSeedFallsBack(t *testing.T) {
	g := twoCliques(4, 4, 0.2)
	cold := Communities(g)
	for _, seed := range []Partition{
		{},
		{Of: []int{0, 1}, Count: 2},
		{Of: make([]int, 8), Count: 0},
		{Of: []int{0, 0, 0, 0, 1, 1, 1, 8}, Count: 2},
		{Of: []int{0, 0, 0, 0, 1, 1, 1, -1}, Count: 2},
	} {
		warm := CommunitiesSeeded(g, seed)
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("seed %v: warm %v, cold %v", seed, warm.Of, cold.Of)
		}
	}
}
