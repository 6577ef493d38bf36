// Package tsg builds the Time-Series Graphs at the heart of CAD (§III-B of
// the paper): for each window of the MTS, a weighted k-nearest-neighbor
// graph over sensors where edge weights are Pearson correlations, pruned of
// edges whose absolute correlation falls below a threshold τ.
package tsg

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cad/internal/mts"
	"cad/internal/stats"
)

// ErrBadParams reports an invalid builder configuration.
var ErrBadParams = errors.New("tsg: invalid parameters")

// Graph is an undirected weighted graph over n vertices (sensors).
// Adjacency is stored per vertex; every undirected edge appears in both
// endpoints' lists.
type Graph struct {
	n   int
	adj []map[int]float64
}

// NewGraph returns an empty graph over n vertices.
func NewGraph(n int) *Graph {
	adj := make([]map[int]float64, n)
	for i := range adj {
		adj[i] = make(map[int]float64)
	}
	return &Graph{n: n, adj: adj}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// SetEdge inserts or updates the undirected edge (u,v) with the given
// weight. Self-loops are ignored.
func (g *Graph) SetEdge(u, v int, w float64) {
	if u == v {
		return
	}
	g.adj[u][v] = w
	g.adj[v][u] = w
}

// RemoveEdge deletes the undirected edge (u,v) if present.
func (g *Graph) RemoveEdge(u, v int) {
	delete(g.adj[u], v)
	delete(g.adj[v], u)
}

// Weight returns the weight of edge (u,v) and whether it exists.
func (g *Graph) Weight(u, v int) (float64, bool) {
	w, ok := g.adj[u][v]
	return w, ok
}

// HasEdge reports whether (u,v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.adj[u][v]
	return ok
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Neighbors calls fn for every neighbor of u with the edge weight. Iteration
// order is unspecified.
func (g *Graph) Neighbors(u int, fn func(v int, w float64)) {
	for v, w := range g.adj[u] {
		fn(v, w)
	}
}

// NeighborsSorted returns u's neighbors in ascending vertex order, for
// deterministic iteration.
func (g *Graph) NeighborsSorted(u int) []int {
	vs := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// TotalWeight returns the sum of |w| over undirected edges. CAD graphs carry
// correlations in [-1,1]; community detection treats edge strength as the
// magnitude of correlation, since strong negative correlation is still a
// strong relationship between sensors.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for u, a := range g.adj {
		for v, w := range a {
			if u < v {
				s += math.Abs(w)
			}
		}
	}
	return s
}

// Builder constructs TSGs from MTS windows.
type Builder struct {
	// K is the number of highest-|correlation| neighbors each vertex
	// connects to (paper's k, Table II).
	K int
	// Tau is the correlation threshold τ: edges with |weight| < Tau are
	// pruned (§III-B).
	Tau float64
}

// Validate checks the builder configuration for n sensors.
func (b Builder) Validate(n int) error {
	if b.K < 1 {
		return fmt.Errorf("%w: k=%d must be ≥ 1", ErrBadParams, b.K)
	}
	if b.K >= n {
		return fmt.Errorf("%w: k=%d must be < n=%d", ErrBadParams, b.K, n)
	}
	if b.Tau < 0 || b.Tau > 1 {
		return fmt.Errorf("%w: τ=%v must be in [0,1]", ErrBadParams, b.Tau)
	}
	return nil
}

// Build converts one MTS window into a TSG: an exact k-NN graph under
// absolute Pearson correlation, pruned at τ. Cost is O(n²·w + n²·log k).
func (b Builder) Build(window *mts.MTS) (*Graph, error) {
	n := window.Sensors()
	if err := b.Validate(n); err != nil {
		return nil, err
	}
	corr, err := stats.PearsonMatrix(window.Rows())
	if err != nil {
		return nil, fmt.Errorf("tsg: correlation: %w", err)
	}
	return b.fromCorrelation(corr), nil
}

// FromCorrelation builds a TSG directly from a precomputed correlation
// matrix. The matrix must be square and symmetric.
func (b Builder) FromCorrelation(corr [][]float64) (*Graph, error) {
	n := len(corr)
	if err := b.Validate(n); err != nil {
		return nil, err
	}
	for _, row := range corr {
		if len(row) != n {
			return nil, fmt.Errorf("%w: correlation matrix is not square", ErrBadParams)
		}
	}
	return b.fromCorrelation(corr), nil
}

// fromCorrelation selects each vertex's K strongest correlations under
// rankBefore, pruned at τ, with the same routine the streaming path repairs
// with.
func (b Builder) fromCorrelation(corr [][]float64) *Graph {
	inc := newIncremental(b, len(corr))
	inc.Repair(Dense(corr))
	return inc.g
}

// BuildSequence converts every round of the windowed MTS into a TSG,
// returning R graphs.
func (b Builder) BuildSequence(m *mts.MTS, wd mts.Windowing) ([]*Graph, error) {
	R := wd.Rounds(m.Len())
	if R == 0 {
		return nil, fmt.Errorf("tsg: %w", wd.Validate(m.Len()))
	}
	out := make([]*Graph, R)
	for r := 0; r < R; r++ {
		win, err := wd.Window(m, r)
		if err != nil {
			return nil, err
		}
		g, err := b.Build(win)
		if err != nil {
			return nil, fmt.Errorf("tsg: round %d: %w", r, err)
		}
		out[r] = g
	}
	return out, nil
}
