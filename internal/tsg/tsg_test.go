package tsg

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cad/internal/mts"
	"cad/internal/stats"
)

// build converts one window into a TSG the way the equivalence oracle does:
// a two-pass Pearson matrix, then FromCorrelation.
func build(b Builder, window *mts.MTS) (*Graph, error) {
	corr, err := stats.PearsonMatrix(window.Rows())
	if err != nil {
		return nil, err
	}
	return b.FromCorrelation(corr)
}

func TestGraphBasics(t *testing.T) {
	if g := FromEdges(4, nil); g.N() != 4 || g.Edges() != 0 {
		t.Fatalf("empty graph: n=%d edges=%d", g.N(), g.Edges())
	}
	g := FromEdges(4, []Edge{
		{0, 1, 0.5},
		{1, 2, -0.8},
		{0, 0, 1},   // self-loop ignored
		{1, 0, 0.9}, // the last weight of a pair wins
	})
	if g.Edges() != 2 {
		t.Errorf("edges = %d, want 2", g.Edges())
	}
	if w, ok := g.Weight(1, 0); !ok || w != 0.9 {
		t.Errorf("Weight(1,0) = %v,%v", w, ok)
	}
	if w, ok := g.Weight(0, 1); !ok || w != 0.9 {
		t.Errorf("Weight(0,1) = %v,%v", w, ok)
	}
	if !g.HasEdge(2, 1) || g.HasEdge(0, 3) || g.HasEdge(0, 0) {
		t.Error("HasEdge wrong")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Errorf("degrees: %d %d", g.Degree(1), g.Degree(3))
	}
	if math.Abs(g.TotalWeight()-1.7) > 1e-12 {
		t.Errorf("TotalWeight = %v, want 1.7 (abs weights)", g.TotalWeight())
	}
	ids, w := g.Adj(1)
	if !slices.Equal(ids, []int{0, 2}) || !slices.Equal(w, []float64{0.9, -0.8}) {
		t.Errorf("Adj(1) = %v %v", ids, w)
	}
	if ids, w := g.Adj(3); len(ids) != 0 || len(w) != 0 {
		t.Errorf("Adj(3) = %v %v", ids, w)
	}
	if ids, _ := g.Adj(0); cap(ids) != len(ids) {
		t.Errorf("Adj(0) exposes capacity %d past its row of %d", cap(ids), len(ids))
	}
}

// TestFromEdgesMatchesDense checks the row merge against a dense
// adjacency matrix: random edges in random order, duplicates and
// self-loops included, must come out as strictly ascending symmetric rows
// holding every pair's last weight.
func TestFromEdgesMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(20)
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
			for j := range dense[i] {
				dense[i][j] = math.NaN() // absent
			}
		}
		var edges []Edge
		for e := rng.Intn(3 * n); e > 0; e-- {
			u, v, w := rng.Intn(n), rng.Intn(n), 2*rng.Float64()-1
			edges = append(edges, Edge{u, v, w})
			if u != v {
				dense[u][v], dense[v][u] = w, w
			}
		}
		g := FromEdges(n, edges)
		count := 0
		for u := 0; u < n; u++ {
			ids, ws := g.Adj(u)
			if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
				t.Fatalf("iter %d: row %d not strictly ascending: %v", iter, u, ids)
			}
			for v := 0; v < n; v++ {
				w, ok := g.Weight(u, v)
				if want := dense[u][v]; ok == math.IsNaN(want) || ok && w != want {
					t.Fatalf("iter %d: Weight(%d,%d) = %v,%v, want %v", iter, u, v, w, ok, want)
				}
				if ok {
					count++
				}
			}
			if len(ids) != len(ws) {
				t.Fatalf("iter %d: row %d has %d ids and %d weights", iter, u, len(ids), len(ws))
			}
		}
		if g.Edges()*2 != count {
			t.Fatalf("iter %d: Edges() = %d, dense count %d", iter, g.Edges(), count/2)
		}
	}
}

// TestTotalWeightOrder pins TotalWeight's summation order: ascending (u, v)
// over the upper triangle, so repeated calls agree bit for bit with each
// other and with the hand-ordered sum.
func TestTotalWeightOrder(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(11))
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.4 {
				// Magnitudes spread over many octaves, so the order of
				// the additions shows in the last bits.
				edges = append(edges, Edge{u, v, (2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(12)-6))})
			}
		}
	}
	var want float64
	for _, e := range edges { // generated in ascending (u, v) order
		want += math.Abs(e.W)
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	g := FromEdges(n, edges)
	for i := 0; i < 20; i++ {
		if got := g.TotalWeight(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: TotalWeight = %v, want %v (ascending order)", i, got, want)
		}
	}
}

func TestBuilderValidate(t *testing.T) {
	cases := []struct {
		b  Builder
		n  int
		ok bool
	}{
		{Builder{K: 1, Tau: 0.5}, 3, true},
		{Builder{K: 0, Tau: 0.5}, 3, false},
		{Builder{K: 3, Tau: 0.5}, 3, false},
		{Builder{K: 1, Tau: -0.1}, 3, false},
		{Builder{K: 1, Tau: 1.1}, 3, false},
	}
	for _, c := range cases {
		err := c.b.Validate(c.n)
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v, n=%d) = %v", c.b, c.n, err)
		}
		if err != nil && !errors.Is(err, ErrBadParams) {
			t.Errorf("error should wrap ErrBadParams: %v", err)
		}
	}
}

// correlatedMTS returns 6 sensors in two perfectly separated groups:
// sensors 0-2 follow signal A, sensors 3-5 follow signal B, A ⟂ B.
func correlatedMTS(t *testing.T) *mts.MTS {
	t.Helper()
	const w = 64
	rows := make([][]float64, 6)
	for i := range rows {
		rows[i] = make([]float64, w)
	}
	for j := 0; j < w; j++ {
		a := math.Sin(2 * math.Pi * float64(j) / 16)
		b := math.Cos(2 * math.Pi * float64(j) / 5)
		rows[0][j], rows[1][j], rows[2][j] = a, 2*a+1, -a
		rows[3][j], rows[4][j], rows[5][j] = b, 3*b-2, b*0.5
	}
	m, err := mts.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildGroups(t *testing.T) {
	m := correlatedMTS(t)
	g, err := build(Builder{K: 2, Tau: 0.5}, m)
	if err != nil {
		t.Fatal(err)
	}
	// Within-group edges must exist; cross-group must not.
	inGroup := func(u, v int) bool { return (u < 3) == (v < 3) }
	for u := 0; u < 6; u++ {
		ids, ws := g.Adj(u)
		for i, v := range ids {
			if !inGroup(u, v) {
				t.Errorf("cross-group edge (%d,%d) w=%v", u, v, ws[i])
			}
			if math.Abs(ws[i]) < 0.5 {
				t.Errorf("edge below τ survived: (%d,%d) w=%v", u, v, ws[i])
			}
		}
		if g.Degree(u) != 2 {
			t.Errorf("degree(%d) = %d, want 2 (both same-group partners)", u, g.Degree(u))
		}
	}
	// Negative correlation should be preserved as a negative weight.
	if w, ok := g.Weight(0, 2); !ok || w > -0.99 {
		t.Errorf("Weight(0,2) = %v,%v; want ≈ -1", w, ok)
	}
}

func TestBuildTauPrunesAll(t *testing.T) {
	// Independent noise: with τ=0.99 almost surely no edges survive.
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, 5)
	for i := range rows {
		rows[i] = make([]float64, 128)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	m, _ := mts.New(rows, nil)
	g, err := build(Builder{K: 2, Tau: 0.99}, m)
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 0 {
		t.Errorf("expected full pruning, got %d edges", g.Edges())
	}
}

func TestFromCorrelation(t *testing.T) {
	corr := [][]float64{
		{1, 0.9, 0.1},
		{0.9, 1, 0.2},
		{0.1, 0.2, 1},
	}
	g, err := Builder{K: 1, Tau: 0.5}.FromCorrelation(corr)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) {
		t.Error("missing (0,1)")
	}
	// Vertex 2's best neighbor is 1 at 0.2 < τ → pruned.
	if g.Degree(2) != 0 {
		t.Errorf("degree(2) = %d, want 0", g.Degree(2))
	}
	if _, err := (Builder{K: 1, Tau: 0.5}).FromCorrelation([][]float64{{1, 2}}); err == nil {
		t.Error("non-square matrix should error")
	}
}

// Property: every vertex has degree in [0, n-1]; its own-selected neighbors
// are ≤ K but incoming selections may add more; all |weights| ≥ τ; graph is
// symmetric.
func TestBuildProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		w := 16 + rng.Intn(32)
		k := 1 + rng.Intn(n-1)
		tau := rng.Float64() * 0.9
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, w)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
			}
		}
		m, err := mts.New(rows, nil)
		if err != nil {
			return false
		}
		g, err := build(Builder{K: k, Tau: tau}, m)
		if err != nil {
			return false
		}
		for u := 0; u < n; u++ {
			ids, ws := g.Adj(u)
			for i, v := range ids {
				wt := ws[i]
				if math.Abs(wt) < tau || math.Abs(wt) > 1 {
					return false
				}
				if i > 0 && ids[i-1] >= v {
					return false // rows are strictly ascending
				}
				if w2, exists := g.Weight(v, u); !exists || w2 != wt {
					return false
				}
			}
			if g.Degree(u) > n-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPaperExample2(t *testing.T) {
	// §III Example 1/2: four sensors, s4 drops in the final window. In the
	// final window's TSG, s4's correlation structure must differ from the
	// earlier windows.
	rows := [][]float64{
		{1, 2, 1, 2, 1, 2, 1, 2},
		{10, 20, 10, 20, 10, 20, 10, 20},
		{5, 5.5, 5, 5.5, 5, 5.5, 5, 5.5},
		{100, 200, 100, 200, 100, 200, 20, 20},
	}
	m, _ := mts.New(rows, nil)
	wd := mts.Windowing{W: 4, S: 2}
	round := func(r int) *Graph {
		win, err := wd.Window(m, r)
		if err != nil {
			t.Fatal(err)
		}
		g, err := build(Builder{K: 2, Tau: 0.5}, win)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	first, last := round(0), round(wd.Rounds(m.Len())-1)
	// Early: s4 (index 3) strongly correlated with s1/s2.
	if w, ok := first.Weight(3, 0); !ok || w < 0.9 {
		t.Errorf("early round: s4~s1 weight %v,%v; want strong", w, ok)
	}
	// Last window [4:8): s4 = {1,2,20,20}-pattern breaks; its correlation
	// with the periodic sensors must have weakened or flipped.
	if w, ok := last.Weight(3, 0); ok && w > 0.9 {
		t.Errorf("late round: s4~s1 still %v; anomaly should disturb it", w)
	}
}

func BenchmarkBuild100Sensors(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = make([]float64, 100)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	m, _ := mts.New(rows, nil)
	bu := Builder{K: 10, Tau: 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(bu, m); err != nil {
			b.Fatal(err)
		}
	}
}
