package tsg

import "math"

// Triangle is a symmetric correlation matrix read through its strict upper
// triangle, so the diagonal is never read. UpperRow(i) returns r(i, j) for
// j = i+1, …, n−1; the caller reads each row before asking for the next, so
// an implementation may derive every row into the same buffer. At(i, j)
// returns the single value r(i, j), i < j, bit-identical to the one
// UpperRow(i) holds for j.
type Triangle interface {
	UpperRow(i int) []float64
	At(i, j int) float64
}

// Dense reads a square symmetric matrix as a Triangle without copying.
type Dense [][]float64

// UpperRow returns the part of row i right of the diagonal.
func (d Dense) UpperRow(i int) []float64 { return d[i][i+1:] }

// At returns d[i][j].
func (d Dense) At(i, j int) float64 { return d[i][j] }

// edge is one k-NN candidate: neighbor id and signed correlation.
type edge struct {
	v int
	w float64
}

// rankBefore is the selection order of the k-NN graph: |correlation|
// descending, ties toward the lower vertex id. It is a strict total order
// over one vertex's candidates, so the selected top-K is unique whatever
// order the candidates arrive in.
func rankBefore(aw float64, av int, bw float64, bv int) bool {
	aa, ab := math.Abs(aw), math.Abs(bw)
	if aa != ab {
		return aa > ab
	}
	return av < bv
}

// Incremental maintains a TSG across a sliding sequence of correlation
// matrices, reusing its selection and adjacency buffers instead of
// allocating a graph every round. It is also the one selection routine of
// the package: Builder.FromCorrelation runs a single Repair on a fresh
// Incremental.
//
// The maintained invariant is exact: after every Repair the graph equals
// Builder.FromCorrelation(corr) edge for edge and weight for weight.
//
// An Incremental is not safe for concurrent use.
type Incremental struct {
	b Builder
	n int
	// g is the maintained graph. Each Repair links the new rows into the
	// spare offset and id arrays, diffing them against g's, and keeps g's
	// as the next spare; the weights are rewritten in place.
	g                  *Graph
	spareOff, spareNbr []int
	rev                reverse

	// sel[u] is u's committed top-K selection sorted by neighbor id
	// (weights included, pre-τ-pruning). next[u] is the selection the
	// current Repair builds: ranked best first while candidates are
	// offered, sorted by id once the pass is over. Both are carved out of
	// fixed n·K backing arrays and swapped on commit, so the steady state
	// allocates nothing.
	sel, next [][]edge
	// floor[u] is a lower bound on |w| of u's K-th candidate this round: an
	// offer weaker than the floor is rejected on this one comparison. It
	// starts at seedFloor and rises to |w| of next[u]'s worst candidate
	// once the set holds K.
	floor []float64
}

// NewIncremental returns an incremental builder over n vertices with an
// empty graph; the first Repair populates it fully.
func NewIncremental(b Builder, n int) (*Incremental, error) {
	if err := b.Validate(n); err != nil {
		return nil, err
	}
	return newIncremental(b, n), nil
}

func newIncremental(b Builder, n int) *Incremental {
	k := b.K
	inc := &Incremental{
		b:        b,
		n:        n,
		g:        &Graph{off: make([]int, n+1)},
		spareOff: make([]int, n+1),
		sel:      make([][]edge, n),
		next:     make([][]edge, n),
		floor:    make([]float64, n),
	}
	selBuf, nextBuf := make([]edge, n*k), make([]edge, n*k)
	for u := 0; u < n; u++ {
		inc.sel[u] = selBuf[u*k : u*k : (u+1)*k]
		inc.next[u] = nextBuf[u*k : u*k : (u+1)*k]
	}
	return inc
}

// Graph returns the maintained graph. Repair rebuilds it in place; callers
// must not modify it.
func (inc *Incremental) Graph() *Graph { return inc.g }

// Repair brings the maintained graph to Builder.FromCorrelation of the
// matrix corr reads. It returns the number of structural changes applied —
// edges inserted or removed, not counting weight-only updates — which
// callers use to decide whether the graph's topology is stable enough for
// warm-started community detection.
//
// One pass over the triangle offers each pair's correlation to both
// endpoints' bounded K-slot candidate sets; most offers fail the single
// comparison against the set's floor. Each set is then sorted by id, and
// the graph's rows are rebuilt as the merge of those sets with the reverse
// selections, counting the change against the previous rows on the way.
func (inc *Incremental) Repair(corr Triangle) (structural int) {
	n := inc.n
	for u := 0; u < n; u++ {
		inc.next[u] = inc.next[u][:0]
		inc.floor[u] = inc.seedFloor(u, corr)
	}
	floor := inc.floor
	for i := 0; i < n; i++ {
		row := corr.UpperRow(i)
		fj := floor[i+1 : i+1+len(row)]
		for t, w := range row {
			a := math.Abs(w)
			if a >= floor[i] {
				inc.offer(i, i+1+t, w)
			}
			if a >= fj[t] {
				inc.offer(i+1+t, i, w)
			}
		}
	}
	for u := 0; u < n; u++ {
		sortByID(inc.next[u])
	}
	oldOff, oldNbr := inc.g.off, inc.g.nbr
	inc.g.off, inc.g.nbr = inc.spareOff, inc.spareNbr
	structural = inc.g.link(inc.next, inc.b.Tau, &inc.rev, oldOff, oldNbr)
	inc.spareOff, inc.spareNbr = oldOff, oldNbr
	inc.sel, inc.next = inc.next, inc.sel
	return structural
}

// seedFloor returns the weakest current |correlation| between u and its K
// previous neighbors, or −1 when u has no full previous selection. u's K
// strongest candidates are at least as strong as any K of them, so no offer
// below this value can enter; and with correlations drifting slowly between
// rounds it sits close to the new K-th, which keeps most offers off the
// insertion path.
func (inc *Incremental) seedFloor(u int, corr Triangle) float64 {
	prev := inc.sel[u]
	if len(prev) < inc.b.K {
		return -1
	}
	floor := math.Inf(1)
	for _, e := range prev {
		var w float64
		if u < e.v {
			w = corr.At(u, e.v)
		} else {
			w = corr.At(e.v, u)
		}
		a := math.Abs(w)
		if !(a >= 0) { // NaN: no usable bound
			return -1
		}
		floor = min(floor, a)
	}
	return floor
}

// offer inserts candidate (v, w) into u's ranked candidate set if it ranks
// among the K best seen so far, evicting the worst when the set is full.
func (inc *Incremental) offer(u, v int, w float64) {
	set := inc.next[u]
	p := len(set)
	for p > 0 && rankBefore(w, v, set[p-1].w, set[p-1].v) {
		p--
	}
	k := cap(set)
	if p == k {
		return
	}
	if len(set) < k {
		set = set[:len(set)+1]
	}
	copy(set[p+1:], set[p:len(set)-1])
	set[p] = edge{v, w}
	inc.next[u] = set
	if len(set) == k {
		inc.floor[u] = math.Abs(set[k-1].w)
	}
}

// sortByID orders a candidate set by neighbor id. Sets hold K entries, so a
// plain insertion sort beats a general-purpose one.
func sortByID(set []edge) {
	for i := 1; i < len(set); i++ {
		e := set[i]
		j := i
		for ; j > 0 && set[j-1].v > e.v; j-- {
			set[j] = set[j-1]
		}
		set[j] = e
	}
}
