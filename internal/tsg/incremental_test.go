package tsg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"cad/internal/stats"
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

// windowRows returns n sensors' windows of w readings with large offsets,
// in the layout SlidingCorr.Refresh reads.
func windowRows(rng *rand.Rand, n, w int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, w)
		for u := range rows[i] {
			rows[i][u] = 1e3*float64(i%7) + rng.NormFloat64()
		}
	}
	return rows
}

// refreshRound sweeps a refresh view of rows on acc through inc with the
// sweep shared among workers goroutines, and checks that acc then holds
// the bits of a serial Refresh and inc the graph FromCorrelation builds
// from them.
func refreshRound(inc *Incremental, acc *stats.SlidingCorr, rows [][]float64, workers int) error {
	inc.repair(acc.RefreshRows(rows), workers)
	serial := stats.NewSlidingCorr(acc.Sensors(), acc.Window())
	serial.Refresh(rows)
	ra, sa, pa, ca := acc.State()
	rs, ss, ps, cs := serial.State()
	if ca != cs {
		return fmt.Errorf("count %d, serial %d", ca, cs)
	}
	for _, p := range [][2][]float64{{ra, rs}, {sa, ss}, {pa, ps}} {
		for k := range p[0] {
			if math.Float64bits(p[0][k]) != math.Float64bits(p[1][k]) {
				return fmt.Errorf("sum %d is %v, serial %v", k, p[0][k], p[1][k])
			}
		}
	}
	runtime.KeepAlive(acc) // State's slices are freed with acc
	batch, err := inc.b.FromCorrelation(serial.Corr())
	if err != nil {
		return err
	}
	return sameGraph(inc.Graph(), batch)
}

// TestSlidingCorrRefreshSplit: a refresh view swept by Repair with its
// rows shared among one to eight goroutines, more than there are rows
// included, sums every cell as a serial Refresh does and selects the graph
// FromCorrelation builds from those sums, on a fresh graph and on one
// whose previous selection seeds the floors through At. Every At taken
// before a sweep equals the cell UpperRow derives.
func TestSlidingCorrRefreshSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range [][2]int{{5, 3}, {13, 17}, {257, 3}, {257, 64}} {
		n, w := shape[0], shape[1]
		b := Builder{K: min(5, n-1), Tau: 0.2}
		wins := [][][]float64{windowRows(rng, n, w), windowRows(rng, n, w)}
		stale := windowRows(rng, 1, n)[0]
		for workers := 1; workers <= 8; workers++ {
			inc, acc := newIncremental(b, n), stats.NewSlidingCorr(n, w)
			acc.Push(stale) // sums the refresh must discard
			for r, rows := range wins {
				if err := refreshRound(inc, acc, rows, workers); err != nil {
					t.Fatalf("n=%d w=%d workers=%d round %d: %v", n, w, workers, r, err)
				}
			}
		}
		view := stats.NewSlidingCorr(n, w).RefreshRows(wins[0])
		at := make([][]float64, n)
		for i := range at {
			at[i] = make([]float64, n)
			for j := i + 1; j < n; j++ {
				at[i][j] = view.At(i, j)
			}
		}
		buf := make([]float64, n)
		for i := 0; i < n; i++ {
			for t0, r := range view.UpperRow(i, buf) {
				if j := i + 1 + t0; math.Float64bits(at[i][j]) != math.Float64bits(r) {
					t.Fatalf("n=%d w=%d: At(%d, %d) = %v, UpperRow derives %v", n, w, i, j, at[i][j], r)
				}
			}
		}
	}
}

// TestSlidingCorrRefreshConcurrent sweeps refresh views of several
// accumulators at once, each sweep split three ways; under -race it
// checks that the goroutines of one refresh share nothing with another's,
// the pooled deviation scratch included.
func TestSlidingCorrRefreshConcurrent(t *testing.T) {
	const n, w, streams, rounds = 200, 64, 4, 3
	b := Builder{K: 6, Tau: 0.3}
	rng := rand.New(rand.NewSource(8))
	var wg sync.WaitGroup
	errs := make([]error, streams)
	for k := range streams {
		wins := make([][][]float64, rounds)
		for r := range wins {
			wins[r] = windowRows(rng, n, w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			inc, acc := newIncremental(b, n), stats.NewSlidingCorr(n, w)
			for r, rows := range wins {
				if err := refreshRound(inc, acc, rows, 3); err != nil {
					errs[k] = fmt.Errorf("stream %d round %d: %w", k, r, err)
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

// TestSplitRows: the runs cover the rows in order, none is empty, there
// are at most the asked-for number, and their cell counts are about equal.
// Asked for at least one run per cell, or for more runs than an int's
// products of cell counts can hold, every row is a run of its own.
func TestSplitRows(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 100, 1000} {
		for _, blocks := range []int{stats.PackedLen(n), math.MaxInt} {
			if b := SplitRows(nil, n, blocks); len(b) != max(n, 1)+1 || b[len(b)-1] != n {
				t.Fatalf("n=%d blocks=%d: bounds %v, want one run per row", n, blocks, b)
			}
		}
		for _, blocks := range []int{1, 2, 3, 7, 2*n + 1} {
			b := SplitRows(nil, n, blocks)
			if b[0] != 0 || b[len(b)-1] != n || len(b)-1 > max(blocks, 1) {
				t.Fatalf("n=%d blocks=%d: bounds %v", n, blocks, b)
			}
			for k := 1; k < len(b); k++ {
				if b[k] <= b[k-1] && n > 0 {
					t.Fatalf("n=%d blocks=%d: empty run in %v", n, blocks, b)
				}
				cells := stats.PackedLen(n-b[k-1]) - stats.PackedLen(n-b[k])
				if n >= 100 && blocks <= 7 && math.Abs(float64(cells)-float64(stats.PackedLen(n))/float64(len(b)-1)) > float64(n) {
					t.Fatalf("n=%d blocks=%d: run %d holds %d cells of %d", n, blocks, k-1, cells, stats.PackedLen(n))
				}
			}
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
