package tsg

import (
	"math"
	"math/rand"
	"testing"

	"cad/internal/mts"
)

// groupedMTS builds `groups` blocks of `per` sensors driven by independent
// latents plus noise.
func groupedMTS(seed int64, groups, per, w int) *mts.MTS {
	rng := rand.New(rand.NewSource(seed))
	n := groups * per
	m := mts.Zeros(n, w)
	phase := make([]float64, groups)
	for g := range phase {
		phase[g] = rng.Float64() * 2 * math.Pi
	}
	for t := 0; t < w; t++ {
		for g := 0; g < groups; g++ {
			latent := math.Sin(2*math.Pi*float64(t)/(13+5*float64(g)) + phase[g])
			for j := 0; j < per; j++ {
				i := g*per + j
				m.Set(i, t, latent*(1+0.1*float64(j))+0.05*rng.NormFloat64())
			}
		}
	}
	return m
}

func TestBuildApproxMatchesExactStructure(t *testing.T) {
	m := groupedMTS(1, 4, 8, 96) // 32 sensors
	b := Builder{K: 5, Tau: 0.5}
	exact, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := b.BuildApprox(m, ApproxConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if approx.N() != exact.N() {
		t.Fatalf("vertex counts differ")
	}
	// Edge overlap: the approximate graph should recover the bulk of the
	// exact strong edges.
	total, shared := 0, 0
	for u := 0; u < exact.N(); u++ {
		ids, _ := exact.Adj(u)
		for _, v := range ids {
			if u < v {
				total++
				if approx.HasEdge(u, v) {
					shared++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("exact graph has no edges")
	}
	if overlap := float64(shared) / float64(total); overlap < 0.85 {
		t.Errorf("edge overlap = %.3f, want ≥ 0.85", overlap)
	}
	// No cross-group edges (independent latents correlate weakly).
	for u := 0; u < approx.N(); u++ {
		ids, ws := approx.Adj(u)
		for i, v := range ids {
			if u/8 != v/8 {
				t.Errorf("approx cross-group edge (%d,%d) w=%v", u, v, ws[i])
			}
			if math.Abs(ws[i]) < 0.5 {
				t.Errorf("edge below τ: (%d,%d) %v", u, v, ws[i])
			}
		}
	}
}

func TestBuildApproxPreservesSign(t *testing.T) {
	// Sensor 1 anti-correlates with sensor 0.
	w := 64
	m := mts.Zeros(3, w)
	for t := 0; t < w; t++ {
		v := math.Sin(2 * math.Pi * float64(t) / 16)
		m.Set(0, t, v)
		m.Set(1, t, -v)
		m.Set(2, t, v*2)
	}
	g, err := (Builder{K: 2, Tau: 0.5}).BuildApprox(m, ApproxConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if wt, ok := g.Weight(0, 1); !ok || wt > -0.99 {
		t.Errorf("anti-correlated edge weight %v, %v; want ≈ −1", wt, ok)
	}
	if wt, ok := g.Weight(0, 2); !ok || wt < 0.99 {
		t.Errorf("correlated edge weight %v, %v; want ≈ 1", wt, ok)
	}
}

func TestBuildApproxConstantRows(t *testing.T) {
	m := groupedMTS(4, 2, 4, 48)
	// Make one row constant.
	row := m.Row(3)
	for t := range row {
		row[t] = 7
	}
	g, err := (Builder{K: 3, Tau: 0.3}).BuildApprox(m, ApproxConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(3) != 0 {
		t.Errorf("constant sensor has degree %d", g.Degree(3))
	}
}

func TestBuildApproxAllConstant(t *testing.T) {
	m := mts.Zeros(4, 20)
	g, err := (Builder{K: 2, Tau: 0.3}).BuildApprox(m, ApproxConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 0 {
		t.Errorf("all-constant series produced %d edges", g.Edges())
	}
}

// TestBuildApproxConstantRowsMatchExact is the regression test for the
// constant-row k-NN hazard: a standardized constant row is the zero vector,
// which sits at correlation distance 1 from everything — if inserted into
// the HNSW index it could still fill k-NN result slots for vertices with
// fewer than k genuinely correlated neighbors. The exact and approx
// builders must agree that constant rows are isolated, on a window where
// one sparse vertex has only a single real correlate (so any leaked
// zero-vector neighbor would surface as a spurious edge).
func TestBuildApproxConstantRowsMatchExact(t *testing.T) {
	const w = 64
	m := groupedMTS(9, 2, 4, w)
	// Sensors 2, 5, 6 go constant at different levels.
	for _, s := range []int{2, 5, 6} {
		row := m.Row(s)
		for t := range row {
			row[t] = float64(3 + s)
		}
	}
	// Sensor 7's only strong correlate is sensor 4: overwrite it with
	// sensor 4's negated values plus noise, leaving it weakly related to
	// everything else. With k=3 its remaining slots are exactly where a
	// zero vector could sneak in.
	rng := rand.New(rand.NewSource(77))
	src := m.Row(4)
	dst := m.Row(7)
	for t := range dst {
		dst[t] = -src[t] + 0.02*rng.NormFloat64()
	}
	b := Builder{K: 3, Tau: 0.3}
	exact, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := b.BuildApprox(m, ApproxConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{2, 5, 6} {
		if d := exact.Degree(s); d != 0 {
			t.Errorf("exact: constant sensor %d has degree %d", s, d)
		}
		if d := approx.Degree(s); d != 0 {
			t.Errorf("approx: constant sensor %d has degree %d", s, d)
		}
	}
	// No approx edge may touch a constant sensor, and the sparse vertex
	// must keep its one genuine correlate in both graphs.
	if !exact.HasEdge(4, 7) || !approx.HasEdge(4, 7) {
		t.Errorf("sparse vertex lost its real correlate: exact %v approx %v",
			exact.HasEdge(4, 7), approx.HasEdge(4, 7))
	}
}

func TestBuildApproxValidation(t *testing.T) {
	m := groupedMTS(7, 2, 3, 32)
	if _, err := (Builder{K: 0, Tau: 0.3}).BuildApprox(m, ApproxConfig{}); err == nil {
		t.Error("invalid builder should error")
	}
}

func BenchmarkBuildExact400(b *testing.B) {
	m := groupedMTS(8, 20, 20, 64)
	bu := Builder{K: 10, Tau: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bu.Build(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildApprox400(b *testing.B) {
	m := groupedMTS(8, 20, 20, 64)
	bu := Builder{K: 10, Tau: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bu.BuildApprox(m, ApproxConfig{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
