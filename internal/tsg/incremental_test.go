package tsg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randCorr returns a random symmetric matrix with unit diagonal and entries
// in [-1, 1], quantized so exact ties between |entries| actually occur.
func randCorr(rng *rand.Rand, n int, quant float64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 2*rng.Float64() - 1
			if quant > 0 {
				v = math.Round(v/quant) * quant
			}
			m[i][j], m[j][i] = v, v
		}
	}
	return m
}

// perturbSensors redraws every correlation involving count random sensors.
func perturbSensors(rng *rand.Rand, corr [][]float64, count int, quant float64) {
	n := len(corr)
	for c := 0; c < count; c++ {
		s := rng.Intn(n)
		corr[s][s] = 1
		for j := 0; j < n; j++ {
			if j == s {
				continue
			}
			v := 2*rng.Float64() - 1
			if quant > 0 {
				v = math.Round(v/quant) * quant
			}
			corr[s][j], corr[j][s] = v, v
		}
	}
}

// flatten zeroes sensor s's row and column, diagonal included — how
// PearsonMatrix reports a constant sensor.
func flatten(corr [][]float64, s int) {
	for j := range corr {
		corr[s][j], corr[j][s] = 0, 0
	}
}

// sortedGraph is the selection oracle: every vertex's candidates fully
// sorted by |w| descending, ties toward the lower id, the K first kept when
// |w| ≥ τ.
func sortedGraph(b Builder, corr [][]float64) *Graph {
	n := len(corr)
	var edges []Edge
	for u := 0; u < n; u++ {
		var cands []edge
		for v := 0; v < n; v++ {
			if v != u {
				cands = append(cands, edge{v, corr[u][v]})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			ai, aj := math.Abs(cands[i].w), math.Abs(cands[j].w)
			if ai != aj {
				return ai > aj
			}
			return cands[i].v < cands[j].v
		})
		for _, c := range cands[:b.K] {
			if math.Abs(c.w) >= b.Tau {
				edges = append(edges, Edge{u, c.v, c.w})
			}
		}
	}
	return FromEdges(n, edges)
}

// edgeDiff counts the undirected edges present in exactly one of a and b.
func edgeDiff(a, b *Graph) int {
	d := 0
	for u := 0; u < a.N(); u++ {
		ids, _ := a.Adj(u)
		for _, v := range ids {
			if u < v && !b.HasEdge(u, v) {
				d++
			}
		}
		ids, _ = b.Adj(u)
		for _, v := range ids {
			if u < v && !a.HasEdge(u, v) {
				d++
			}
		}
	}
	return d
}

func sameGraph(a, b *Graph) error {
	if a.N() != b.N() {
		return fmt.Errorf("vertex count %d vs %d", a.N(), b.N())
	}
	if a.Edges() != b.Edges() {
		return fmt.Errorf("edge count %d vs %d", a.Edges(), b.Edges())
	}
	for u := 0; u < a.N(); u++ {
		ids, ws := a.Adj(u)
		for i, v := range ids {
			wa := ws[i]
			wb, ok := b.Weight(u, v)
			if !ok {
				return fmt.Errorf("edge (%d,%d) missing", u, v)
			}
			if wa != wb {
				return fmt.Errorf("edge (%d,%d) weight %v vs %v", u, v, wa, wb)
			}
		}
	}
	return nil
}

// TestIncrementalMatchesBatchRandomized drives the repairer through a
// sequence of correlation matrices — a few sensors redrawn per round,
// sometimes none, sometimes one going constant — and requires after every
// round that the graph equals both FromCorrelation and the full-sort
// oracle, and that the structural count is the exact edge-set difference.
func TestIncrementalMatchesBatchRandomized(t *testing.T) {
	cases := []struct {
		n, k  int
		tau   float64
		quant float64
	}{
		{n: 20, k: 4, tau: 0.3, quant: 0},
		{n: 20, k: 4, tau: 0, quant: 0},     // τ=0: no pruning
		{n: 16, k: 5, tau: 0.4, quant: 0.2}, // coarse quantization: many exact ties
		{n: 30, k: 29, tau: 0.5, quant: 0},  // k = n-1: everything is a candidate
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n%d_k%d_tau%v_q%v", tc.n, tc.k, tc.tau, tc.quant), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n)*1000 + int64(tc.k)))
			b := Builder{K: tc.k, Tau: tc.tau}
			inc, err := NewIncremental(b, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			corr := randCorr(rng, tc.n, tc.quant)
			prev := FromEdges(tc.n, nil)
			for step := 0; step < 60; step++ {
				switch step % 5 {
				case 1:
					perturbSensors(rng, corr, 1, tc.quant)
				case 2:
					perturbSensors(rng, corr, 3, tc.quant)
				case 3:
					flatten(corr, rng.Intn(tc.n))
				case 4:
					perturbSensors(rng, corr, tc.n, tc.quant)
				}
				structural := inc.Repair(Dense(corr))
				want := sortedGraph(b, corr)
				if err := sameGraph(inc.Graph(), want); err != nil {
					t.Fatalf("step %d: repair vs oracle: %v", step, err)
				}
				batch, err := b.FromCorrelation(corr)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameGraph(batch, want); err != nil {
					t.Fatalf("step %d: FromCorrelation vs oracle: %v", step, err)
				}
				if d := edgeDiff(prev, want); structural != d {
					t.Fatalf("step %d: structural = %d, edge sets differ by %d", step, structural, d)
				}
				prev = want
			}
		})
	}
}

func TestIncrementalConstantRows(t *testing.T) {
	const n, k = 10, 3
	rng := rand.New(rand.NewSource(99))
	b := Builder{K: k, Tau: 0.25}
	inc, err := NewIncremental(b, n)
	if err != nil {
		t.Fatal(err)
	}
	corr := randCorr(rng, n, 0)
	flatten(corr, 4)
	inc.Repair(Dense(corr))
	if err := sameGraph(inc.Graph(), sortedGraph(b, corr)); err != nil {
		t.Fatal(err)
	}
	if inc.Graph().Degree(4) != 0 {
		t.Fatalf("constant sensor has degree %d, want 0", inc.Graph().Degree(4))
	}
	// It comes back to life.
	corr[4][4] = 1
	for j := 0; j < n; j++ {
		if j != 4 {
			v := 2*rng.Float64() - 1
			corr[4][j], corr[j][4] = v, v
		}
	}
	inc.Repair(Dense(corr))
	if err := sameGraph(inc.Graph(), sortedGraph(b, corr)); err != nil {
		t.Fatal(err)
	}
	// Every sensor constant: every correlation ties at 0, which τ > 0 prunes.
	for s := 0; s < n; s++ {
		flatten(corr, s)
	}
	inc.Repair(Dense(corr))
	if e := inc.Graph().Edges(); e != 0 {
		t.Fatalf("all-constant matrix left %d edges", e)
	}
}

func TestIncrementalRejectsBadBuilder(t *testing.T) {
	if _, err := NewIncremental(Builder{K: 0, Tau: 0.5}, 5); err == nil {
		t.Fatal("NewIncremental accepted k=0")
	}
	if _, err := NewIncremental(Builder{K: 5, Tau: 0.5}, 5); err == nil {
		t.Fatal("NewIncremental accepted k=n")
	}
}

func TestIncrementalCleanRepairIsNoop(t *testing.T) {
	const n, k = 12, 4
	rng := rand.New(rand.NewSource(5))
	b := Builder{K: k, Tau: 0.3}
	inc, _ := NewIncremental(b, n)
	corr := randCorr(rng, n, 0)
	inc.Repair(Dense(corr))
	before := inc.Graph().Edges()
	if s := inc.Repair(Dense(corr)); s != 0 {
		t.Fatalf("repeat repair reported %d structural changes", s)
	}
	if inc.Graph().Edges() != before {
		t.Fatalf("repeat repair changed edges: %d vs %d", inc.Graph().Edges(), before)
	}
	if err := sameGraph(inc.Graph(), sortedGraph(b, corr)); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalRepairAllocsNothing pins the steady state of the streaming
// round's selection and repair at zero allocations. The matrices alternate,
// so every round moves weights and edges through the reused candidate sets
// and adjacency rows.
func TestIncrementalRepairAllocsNothing(t *testing.T) {
	const n, k = 200, 10
	rng := rand.New(rand.NewSource(8))
	// Converted to Triangle once: boxing a slice in an interface allocates.
	var a, c Triangle = Dense(randCorr(rng, n, 0)), Dense(randCorr(rng, n, 0))
	inc, err := NewIncremental(Builder{K: k, Tau: 0.2}, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // let the adjacency rows reach their size
		inc.Repair(a)
		inc.Repair(c)
	}
	round := 0
	allocs := testing.AllocsPerRun(20, func() {
		if round++; round%2 == 0 {
			inc.Repair(a)
		} else {
			inc.Repair(c)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state repair allocates %v times per round", allocs)
	}
}

// BenchmarkIncrementalRepair times one streaming round's selection and
// repair at n=1000, k=10 on block-structured correlations (40 communities
// of 25) that drift between two states.
func BenchmarkIncrementalRepair(b *testing.B) {
	const n, k, groups = 1000, 10, 40
	rng := rand.New(rand.NewSource(3))
	mk := func() Triangle {
		m := randCorr(rng, n, 0)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if i%groups == j%groups {
					v := 0.7 + 0.3*rng.Float64()
					m[i][j], m[j][i] = v, v
				} else {
					m[i][j] *= 0.3
					m[j][i] = m[i][j]
				}
			}
		}
		return Dense(m)
	}
	a, c := mk(), mk()
	inc, err := NewIncremental(Builder{K: k, Tau: 0.4}, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			inc.Repair(a)
		} else {
			inc.Repair(c)
		}
	}
}
