// Package tsg builds the Time-Series Graphs at the heart of CAD (§III-B of
// the paper): for each window of the MTS, a weighted k-nearest-neighbor
// graph over sensors where edge weights are Pearson correlations, pruned of
// edges whose absolute correlation falls below a threshold τ.
package tsg

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrBadParams reports an invalid builder configuration.
var ErrBadParams = errors.New("tsg: invalid parameters")

// Graph is an undirected weighted graph over n vertices (sensors), stored
// flat: vertex u's neighbors are nbr[off[u]:off[u+1]] in ascending id order,
// with the edge weights at the same positions of w. Every undirected edge
// appears in both endpoints' rows with the same weight. Graphs are read-only
// to their users; only Incremental rebuilds one, in place.
type Graph struct {
	off []int
	nbr []int
	w   []float64
}

// Edge is one undirected edge of weight W between vertices U and V.
type Edge struct {
	U, V int
	W    float64
}

// FromEdges returns the graph over n vertices holding edges, whose endpoints
// must lie in [0, n). Self-loops are ignored, and a pair listed more than once
// keeps its last weight.
func FromEdges(n int, edges []Edge) *Graph {
	// Orient every edge from its lower endpoint, which then "selects" the
	// higher one: the rows come out of the same merge Repair runs.
	half := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if e.U != e.V {
			half = append(half, e)
		}
	}
	slices.SortStableFunc(half, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	sel := make([][]edge, n)
	for i, e := range half {
		if i+1 < len(half) && half[i+1].U == e.U && half[i+1].V == e.V {
			continue // a later weight for the same pair wins
		}
		sel[e.U] = append(sel[e.U], edge{e.V, e.W})
	}
	g := &Graph{}
	g.link(sel, 0, &reverse{}, nil, nil)
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.off) - 1 }

// Adj returns u's neighbors in ascending id order and the parallel edge
// weights. Both are views into the graph: callers must not modify them, and
// they are valid until the graph is next rebuilt.
func (g *Graph) Adj(u int) (ids []int, w []float64) {
	lo, hi := g.off[u], g.off[u+1]
	return g.nbr[lo:hi:hi], g.w[lo:hi:hi]
}

// CSR returns the graph's flat arrays: u's neighbors are nbr[off[u]:off[u+1]]
// and the edge weights w[off[u]:off[u+1]]. Like Adj's, they are read-only
// views, valid until the graph is next rebuilt.
func (g *Graph) CSR() (off, nbr []int, w []float64) { return g.off, g.nbr, g.w }

// Weight returns the weight of edge (u,v) and whether it exists.
func (g *Graph) Weight(u, v int) (float64, bool) {
	ids, w := g.Adj(u)
	if i, ok := slices.BinarySearch(ids, v); ok {
		return w[i], true
	}
	return 0, false
}

// HasEdge reports whether (u,v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.Weight(u, v)
	return ok
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int { return g.off[u+1] - g.off[u] }

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int { return g.off[g.N()] / 2 }

// TotalWeight returns the sum of |w| over undirected edges, added in
// ascending (u, v) order. CAD graphs carry correlations in [-1,1]; community
// detection treats edge strength as the magnitude of correlation, since
// strong negative correlation is still a strong relationship between
// sensors.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for u := 0; u < g.N(); u++ {
		ids, w := g.Adj(u)
		for i, v := range ids {
			if u < v {
				s += math.Abs(w[i])
			}
		}
	}
	return s
}

// reverse is link's scratch. at[off[u]:off[u+1]] lists, ascending, the
// vertices whose τ-passing selection names u. As the rows are merged in
// ascending u, cur[v] walks v's selection alongside, so the weight v
// selected u at is found without a search.
type reverse struct {
	off []int
	at  []int32
	cur []int
}

// link rebuilds g's rows from the id-sorted selections sel: u and v are
// adjacent iff one selects the other at |w| ≥ tau. Row u is the merge of
// sel[u] with the reverse selections of u; an edge both endpoints select
// takes u's own weight, which equals the other side's for the symmetric
// inputs Repair and FromEdges give. oldOff and oldNbr, when not nil, hold
// the previous rows (and must not share g's arrays); link then returns the
// number of undirected edges present in exactly one of the two.
func (g *Graph) link(sel [][]edge, tau float64, rev *reverse, oldOff, oldNbr []int) (diff int) {
	n := len(sel)
	// Bucket the τ-passing selections by target: counts land in roff[u+2],
	// the prefix sum turns roff[u+1] into u's start, and filling advances
	// it to u's end — which leaves roff[u]:roff[u+1] delimiting u's bucket.
	roff := resize(rev.off, n+2)
	clear(roff)
	for _, s := range sel {
		for _, e := range s {
			if !(math.Abs(e.w) < tau) {
				roff[e.v+2]++
			}
		}
	}
	for u := 2; u < n+2; u++ {
		roff[u] += roff[u-1]
	}
	rat := resize(rev.at, roff[n+1])
	for v, s := range sel {
		for _, e := range s {
			if !(math.Abs(e.w) < tau) {
				rat[roff[e.v+1]] = int32(v)
				roff[e.v+1]++
			}
		}
	}
	cur := resize(rev.cur, n)
	clear(cur)
	rev.off, rev.at, rev.cur = roff, rat, cur

	// Every τ-passing selection puts an entry in two rows, except that a
	// pair selected from both ends shares its two entries: size exactly.
	size := 2 * len(rat)
	for u, a := range sel {
		size -= common(a, rat[roff[u]:roff[u+1]], tau)
	}
	g.off = resize(g.off, n+1)
	g.off[0] = 0
	nbr, w := resize(g.nbr, size)[:0], resize(g.w, size)[:0]
	for u, a := range sel {
		b := rat[roff[u]:roff[u+1]]
		for len(a) > 0 || len(b) > 0 {
			switch {
			case len(a) > 0 && math.Abs(a[0].w) < tau:
				a = a[1:]
			case len(b) == 0 || len(a) > 0 && a[0].v <= int(b[0]):
				if len(b) > 0 && int(b[0]) == a[0].v {
					b = b[1:]
				}
				nbr, w = append(nbr, a[0].v), append(w, a[0].w)
				a = a[1:]
			default:
				v := int(b[0])
				for sel[v][cur[v]].v < u {
					cur[v]++
				}
				nbr, w = append(nbr, v), append(w, sel[v][cur[v]].w)
				b = b[1:]
			}
		}
		g.off[u+1] = len(nbr)
		if oldOff != nil {
			diff += symDiff(nbr[g.off[u]:], oldNbr[oldOff[u]:oldOff[u+1]])
		}
	}
	g.nbr, g.w = nbr, w
	// Each differing undirected edge was counted in both endpoints' rows.
	return diff / 2
}

// common counts the ids in both a, skipping its entries below tau, and b.
// Both are ascending.
func common(a []edge, b []int32, tau float64) int {
	c := 0
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].v < int(b[0]):
			a = a[1:]
		case a[0].v > int(b[0]):
			b = b[1:]
		default:
			if !(math.Abs(a[0].w) < tau) {
				c++
			}
			a, b = a[1:], b[1:]
		}
	}
	return c
}

// resize returns s with length n, reusing its backing array when it is large
// enough and allocating exactly n otherwise. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// symDiff counts the ids in exactly one of the ascending lists a and b.
func symDiff(a, b []int) int {
	d := 0
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			d, a = d+1, a[1:]
		case a[0] > b[0]:
			d, b = d+1, b[1:]
		default:
			a, b = a[1:], b[1:]
		}
	}
	return d + len(a) + len(b)
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
