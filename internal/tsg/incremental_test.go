package tsg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
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

// blockCorr returns a correlation matrix of groups communities: members
// of one community correlate strongly, others weakly. A quant > 0 rounds
// every value to its multiple, so equal |r| values abound.
func blockCorr(rng *rand.Rand, n, groups int, quant float64) [][]float64 {
	m := randCorr(rng, n, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.3 * m[i][j]
			if i%groups == j%groups {
				v = 0.7 + 0.3*rng.Float64()
			}
			if quant > 0 {
				v = math.Round(v/quant) * quant
			}
			m[i][j], m[j][i] = v, v
		}
	}
	return m
}

// TestIncrementalRepairSplit: a sweep shared among any number of
// goroutines — one, a few, one per row, more than there are rows — selects
// what the serial sweep selects, round after round: the graph equals
// FromCorrelation edge for edge and weight for weight, and the structural
// count is the serial one. The tie-heavy matrices quantize |r| to a few
// values, so equal candidates of one vertex are offered from chunks that
// different goroutines sweep, and only the id tie-break orders them.
func TestIncrementalRepairSplit(t *testing.T) {
	cases := []struct {
		name         string
		n, k, groups int
		tau, quant   float64
	}{
		{"block", 60, 5, 6, 0.4, 0},
		{"block-ties", 60, 5, 6, 0.4, 0.1},
		{"random-ties", 45, 7, 1, 0.2, 0.25},
		{"k=n-1", 13, 12, 3, 0, 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := Builder{K: tc.k, Tau: tc.tau}
			for _, workers := range []int{1, 2, 3, 7, tc.n, 2 * tc.n} {
				rng := rand.New(rand.NewSource(int64(tc.n)))
				serial, split := newIncremental(b, tc.n), newIncremental(b, tc.n)
				corr := blockCorr(rng, tc.n, tc.groups, tc.quant)
				for step := 0; step < 12; step++ {
					switch step % 4 {
					case 1:
						perturbSensors(rng, corr, 2, tc.quant)
					case 2:
						flatten(corr, rng.Intn(tc.n))
					case 3:
						corr = blockCorr(rng, tc.n, tc.groups, tc.quant)
					}
					want := serial.repair(Dense(corr), 1)
					got := split.repair(Dense(corr), workers)
					batch, err := b.FromCorrelation(corr)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameGraph(split.Graph(), batch); err != nil {
						t.Fatalf("workers=%d step %d: split vs FromCorrelation: %v", workers, step, err)
					}
					if err := sameGraph(serial.Graph(), batch); err != nil {
						t.Fatalf("workers=%d step %d: serial vs FromCorrelation: %v", workers, step, err)
					}
					if got != want {
						t.Fatalf("workers=%d step %d: structural %d, serial %d", workers, step, got, want)
					}
				}
				if want := min(workers, tc.n) - 1; len(split.helpers) > want {
					t.Fatalf("workers=%d: %d helper sets, want at most %d", workers, len(split.helpers), want)
				}
			}
		})
	}
}

// TestIncrementalRepairSplitConcurrent repairs several graphs at once,
// each with its sweep split, so the helpers of different graphs share the
// goroutine hand-off; under -race it checks that no helper touches
// another graph's state. Every graph must still equal FromCorrelation.
func TestIncrementalRepairSplitConcurrent(t *testing.T) {
	const n, k, graphs, rounds = 80, 6, 4, 6
	b := Builder{K: k, Tau: 0.3}
	var wg sync.WaitGroup
	errs := make([]error, graphs)
	for g := range graphs {
		rng := rand.New(rand.NewSource(int64(g)))
		mats := make([][][]float64, rounds)
		for r := range mats {
			mats[r] = blockCorr(rng, n, 5+g, 0.05)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			inc := newIncremental(b, n)
			for r, m := range mats {
				inc.repair(Dense(m), 3+g)
				batch, err := b.FromCorrelation(m)
				if err == nil {
					err = sameGraph(inc.Graph(), batch)
				}
				if err != nil {
					errs[g] = fmt.Errorf("graph %d round %d: %w", g, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestIncrementalSmallSweepStaysSerial: below the split threshold — every
// n < 725, the n=32 streams of a fleet among them — Repair sweeps on the
// calling goroutine alone and allocates no helper sets, however many
// processors there are; an n=1000 sweep splits three ways.
func TestIncrementalSmallSweepStaysSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, n := range []int{32, 724} {
		if got := sweepWorkers(n); got != 1 {
			t.Fatalf("n=%d sweeps with %d goroutines, want 1", n, got)
		}
		rng := rand.New(rand.NewSource(1))
		inc, err := NewIncremental(Builder{K: 5, Tau: 0.3}, n)
		if err != nil {
			t.Fatal(err)
		}
		for range 3 {
			inc.Repair(Dense(blockCorr(rng, n, 4, 0)))
		}
		if inc.helpers != nil {
			t.Fatalf("n=%d allocated %d helper sets", n, len(inc.helpers))
		}
	}
	if got := sweepWorkers(725); got != 2 {
		t.Fatalf("n=725 sweeps with %d goroutines at GOMAXPROCS 8, want 2", got)
	}
	if got := sweepWorkers(1000); got != 3 {
		t.Fatalf("n=1000 sweeps with %d goroutines at GOMAXPROCS 8, want 3", got)
	}
}

// TestIncrementalSplitRepairAllocsNothing: once its helper sets exist, a
// split sweep allocates nothing per round, goroutines included.
func TestIncrementalSplitRepairAllocsNothing(t *testing.T) {
	const n, k = 200, 10
	rng := rand.New(rand.NewSource(8))
	var a, c Triangle = Dense(blockCorr(rng, n, 8, 0)), Dense(blockCorr(rng, n, 8, 0))
	inc := newIncremental(Builder{K: k, Tau: 0.2}, n)
	for range 4 {
		inc.repair(a, 4)
		inc.repair(c, 4)
	}
	round := 0
	allocs := testing.AllocsPerRun(20, func() {
		if round++; round%2 == 0 {
			inc.repair(a, 4)
		} else {
			inc.repair(c, 4)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state split repair allocates %v times per round", allocs)
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
