package tsg

import (
	"fmt"
	"math"

	"cad/internal/hnsw"
	"cad/internal/mts"
)

// ApproxConfig enables HNSW-backed TSG construction (the paper's §IV-F
// complexity analysis assumes such an index to build the k-NN graph in
// O(n log n) instead of the exact O(n²) correlation matrix). The trade-off
// is a small recall loss on the weakest edges, which τ-pruning mostly
// removes anyway. The exact builder's tight O(n²·w) loop wins below
// roughly n ≈ 500 sensors; the HNSW build is ~2× faster by n ≈ 1200 (see
// BenchmarkBuildExact400/BenchmarkBuildApprox400).
type ApproxConfig struct {
	// M is the HNSW connectivity (default 12).
	M int
	// EfConstruction is the HNSW insertion beam (default 80).
	EfConstruction int
	// EfSearch is the query beam (default max(2k, 48)).
	EfSearch int
	// Seed drives the HNSW level draws.
	Seed int64
}

// BuildApprox converts one window into a TSG using an HNSW index over the
// standardized sensor rows under correlation distance, avoiding the full
// O(n²·w) Pearson matrix. Constant rows are isolated vertices, as in the
// exact builder.
func (b Builder) BuildApprox(window *mts.MTS, ac ApproxConfig) (*Graph, error) {
	n := window.Sensors()
	if err := b.Validate(n); err != nil {
		return nil, err
	}
	if ac.M <= 0 {
		ac.M = 12
	}
	if ac.EfConstruction <= 0 {
		ac.EfConstruction = 80
	}
	if ac.EfSearch <= 0 {
		ac.EfSearch = 2 * b.K
		if ac.EfSearch < 48 {
			ac.EfSearch = 48
		}
	}
	w := window.Len()
	// Standardize rows to unit norm so dot products are Pearson
	// correlations.
	unit := make([][]float64, n)
	constant := make([]bool, n)
	for i := 0; i < n; i++ {
		row := window.Row(i)
		var mean float64
		for _, x := range row {
			mean += x
		}
		mean /= float64(w)
		z := make([]float64, w)
		var ss float64
		for j, x := range row {
			z[j] = x - mean
			ss += z[j] * z[j]
		}
		if ss == 0 {
			constant[i] = true
		} else {
			inv := 1 / math.Sqrt(ss)
			for j := range z {
				z[j] *= inv
			}
		}
		unit[i] = z
	}
	ix := hnsw.New(hnsw.CorrelationDistance, hnsw.Config{
		M: ac.M, EfConstruction: ac.EfConstruction, Seed: ac.Seed,
	})
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		if constant[i] {
			ids[i] = -1
			continue
		}
		ids[i] = ix.Add(unit[i])
	}
	if ix.Len() == 0 {
		return FromEdges(n, nil), nil
	}
	// Map index ids back to sensor ids.
	back := make([]int, ix.Len())
	for sensor, id := range ids {
		if id >= 0 {
			back[id] = sensor
		}
	}
	var edges []Edge
	for sensor := 0; sensor < n; sensor++ {
		if ids[sensor] < 0 {
			continue
		}
		res, err := ix.Search(unit[sensor], b.K+1, ac.EfSearch)
		if err != nil {
			return nil, fmt.Errorf("tsg: approx knn: %w", err)
		}
		added := 0
		for _, r := range res {
			other := back[r.ID]
			if other == sensor {
				continue
			}
			// Recover the signed correlation: the index uses |r|, the TSG
			// stores the sign too.
			var dot float64
			zu, zv := unit[sensor], unit[other]
			for t := 0; t < w; t++ {
				dot += zu[t] * zv[t]
			}
			if math.Abs(dot) < b.Tau {
				// Results come closest-first under |r|; all later ones
				// are weaker.
				break
			}
			if dot > 1 {
				dot = 1
			} else if dot < -1 {
				dot = -1
			}
			edges = append(edges, Edge{sensor, other, dot})
			added++
			if added == b.K {
				break
			}
		}
	}
	return FromEdges(n, edges), nil
}
