package tsg

import (
	"math"
	"runtime"
	"sync/atomic"
)

// Triangle is a symmetric correlation matrix read through its strict upper
// triangle, so the diagonal is never read. UpperRow(i, dst) returns r(i, j)
// for j = i+1, …, n−1, either derived into dst[:n−1−i] or as a view of the
// implementation's own storage. At(i, j) returns the single value r(i, j),
// i < j, bit-identical to the one UpperRow(i) returns for j.
//
// Repair reads a Triangle in one sweep: every At call first, then each row
// exactly once, distinct rows possibly from several goroutines at once.
// An implementation may therefore do per-row work when a row is read, such
// as finishing the row's pending updates or summing the row exactly, and so
// have Repair's sweep share that work out among its goroutines.
type Triangle interface {
	UpperRow(i int, dst []float64) []float64
	At(i, j int) float64
}

// Dense reads a square symmetric matrix as a Triangle without copying.
type Dense [][]float64

// UpperRow returns the part of row i right of the diagonal; dst is unused.
func (d Dense) UpperRow(i int, _ []float64) []float64 { return d[i][i+1:] }

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

	// own is the calling goroutine's candidate sets, into which the other
	// sweep goroutines' sets are merged. Between Repairs own.next[u] is
	// u's selection sorted by neighbor id (weights included, pre-τ-pruning):
	// a Repair reads it for u's seed floor, then refills it. The sets are
	// carved out of one fixed n·K backing array, so the steady state
	// allocates nothing.
	own cands
	// helpers are the other goroutines of a split sweep, each with its own
	// sets. They are allocated the first time a Repair splits that wide
	// and reused after.
	helpers []helper
	sweep   sweep
}

// cands is one sweep goroutine's bounded candidate sets. next[u] holds u's
// best candidates offered so far, ranked best first. floor[u] is a lower
// bound on |w| of u's K-th candidate this round: an offer weaker than the
// floor is rejected on this one comparison. It starts at the shared seed
// floor and rises to |w| of next[u]'s worst candidate once the set holds
// K. row is the goroutine's buffer for derived triangle rows.
type cands struct {
	next  [][]edge
	floor []float64
	row   []float64
}

func newCands(n, k int) cands {
	return cands{next: newSets(n, k), floor: make([]float64, n), row: make([]float64, n)}
}

// newSets returns n empty k-slot sets carved out of one backing array.
func newSets(n, k int) [][]edge {
	sets, buf := make([][]edge, n), make([]edge, n*k)
	for u := range sets {
		sets[u] = buf[u*k : u*k : (u+1)*k]
	}
	return sets
}

// sweep is one Repair's pass over the triangle: its rows cut into chunks
// of about equal cell counts, which the sweep's goroutines claim in order
// until none is left, so one that starts late or runs slow takes fewer.
// busy counts the helpers still sweeping. The caller waits for it to reach
// zero by yielding rather than by sleeping: waking a sleeping goroutine can
// take longer than a chunk's work on a virtualized host.
type sweep struct {
	corr   Triangle
	chunks []int // chunk c is rows [chunks[c], chunks[c+1])
	next   atomic.Int64
	busy   atomic.Int64
}

// sweepChunks is the number of chunks per sweep goroutine.
const sweepChunks = 8

// run offers the rows of every chunk it claims to the sets c.
func (s *sweep) run(c *cands) {
	for {
		k := int(s.next.Add(1))
		if k >= len(s.chunks) {
			return
		}
		c.sweep(s.corr, s.chunks[k-1], s.chunks[k])
	}
}

// helper is a split sweep's goroutine other than the caller's.
type helper struct {
	cands
	sweep *sweep
}

// helperQueue hands each helper to the goroutine Repair starts for it.
// The goroutine runs a function without arguments or captures, which costs
// the heap nothing, so a split sweep allocates nothing per round. The
// buffer lets Repair hand a helper over without waiting for its goroutine
// to be scheduled; 64 covers the helpers of several sweeps running at once,
// and a full queue only delays the handing over.
var helperQueue = make(chan *helper, 64)

func runHelper() {
	h := <-helperQueue
	h.sweep.run(&h.cands)
	h.sweep.busy.Add(-1)
}

// sweepCells is the fewest triangle cells Repair gives one goroutine,
// about a millisecond of slide, derive and offer work. A goroutine beyond
// the first costs a candidate set of n·K edges, and the sweep is partly
// bound by memory bandwidth, so an n=1000 triangle splits across at most
// three goroutines, two from n=725, while a triangle of fewer sensors, the
// n=32 streams of a fleet included, is swept by the caller alone.
const sweepCells = 1 << 17

// sweepWorkers returns how many goroutines Repair sweeps an n-vertex
// triangle with.
func sweepWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n*(n-1)/2/sweepCells))
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
	return &Incremental{
		b:        b,
		n:        n,
		g:        &Graph{off: make([]int, n+1)},
		spareOff: make([]int, n+1),
		own:      newCands(n, b.K),
	}
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
// One sweep over the triangle offers each pair's correlation to both
// endpoints' bounded K-slot candidate sets; most offers fail the single
// comparison against the set's floor. Above sweepCells cells per
// goroutine the sweep's rows are shared out among up to GOMAXPROCS
// goroutines, each offering into sets of its own that start at the same
// seed floors, and the sets are merged afterwards. rankBefore is a strict
// total order, so each vertex's K best candidates are the same set however
// the offers were split. Each set is then sorted by id, and the graph's
// rows are rebuilt as the merge of those sets with the reverse selections,
// counting the change against the previous rows on the way.
func (inc *Incremental) Repair(corr Triangle) (structural int) {
	return inc.repair(corr, sweepWorkers(inc.n))
}

// repair is Repair with the sweep shared out among at most workers
// goroutines.
func (inc *Incremental) repair(corr Triangle, workers int) (structural int) {
	n, own, sw := inc.n, &inc.own, &inc.sweep
	for u := 0; u < n; u++ {
		own.floor[u] = inc.seedFloor(u, corr)
		own.next[u] = own.next[u][:0]
	}
	sw.corr = corr
	sw.chunks = SplitRows(sw.chunks, n, workers*sweepChunks)
	sw.next.Store(0)
	extra := min(workers, len(sw.chunks)-1) - 1
	for len(inc.helpers) < extra {
		inc.helpers = append(inc.helpers, helper{cands: newCands(n, inc.b.K), sweep: sw})
	}
	hs := inc.helpers[:extra]
	sw.busy.Store(int64(extra))
	for i := range hs {
		h := &hs[i]
		copy(h.floor, own.floor)
		for u := range h.next {
			h.next[u] = h.next[u][:0]
		}
		go runHelper()
		helperQueue <- h
	}
	sw.run(own)
	for sw.busy.Load() > 0 {
		runtime.Gosched()
	}
	sw.corr = nil
	for i := range hs {
		for u, set := range hs[i].next {
			for _, e := range set {
				if !(math.Abs(e.w) >= own.floor[u]) {
					break // the set is ranked, so no later entry passes
				}
				own.offer(u, e.v, e.w)
			}
		}
	}
	for u := 0; u < n; u++ {
		sortByID(own.next[u])
	}
	oldOff, oldNbr := inc.g.off, inc.g.nbr
	inc.g.off, inc.g.nbr = inc.spareOff, inc.spareNbr
	structural = inc.g.link(own.next, inc.b.Tau, &inc.rev, oldOff, oldNbr)
	inc.spareOff, inc.spareNbr = oldOff, oldNbr
	return structural
}

// sweep offers the pairs of triangle rows [lo, hi) to the sets.
func (c *cands) sweep(corr Triangle, lo, hi int) {
	floor := c.floor
	for i := lo; i < hi; i++ {
		row := corr.UpperRow(i, c.row)
		fj := floor[i+1 : i+1+len(row)]
		for t, w := range row {
			a := math.Abs(w)
			if a >= floor[i] {
				c.offer(i, i+1+t, w)
			}
			if a >= fj[t] {
				c.offer(i+1+t, i, w)
			}
		}
	}
}

// seedFloor returns the weakest current |correlation| between u and its K
// previous neighbors, or −1 when u has no full previous selection. It
// reads the previous selection, so it runs before u's set is refilled. u's K
// strongest candidates are at least as strong as any K of them, so no offer
// below this value can enter; and with correlations drifting slowly between
// rounds it sits close to the new K-th, which keeps most offers off the
// insertion path.
func (inc *Incremental) seedFloor(u int, corr Triangle) float64 {
	prev := inc.own.next[u]
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
func (c *cands) offer(u, v int, w float64) {
	set := c.next[u]
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
	c.next[u] = set
	if len(set) == k {
		c.floor[u] = math.Abs(set[k-1].w)
	}
}

// SplitRows splits the rows of an n-row packed triangle, diagonal included,
// into at most blocks runs of consecutive rows holding about equal numbers
// of cells. It appends the run boundaries to bounds[:0] and returns it:
// run b is rows [bounds[b], bounds[b+1]). Every run is non-empty, except
// the single one of an empty triangle. Beyond one block per cell every
// row is a run of its own, so blocks is capped there.
func SplitRows(bounds []int, n, blocks int) []int {
	blocks = min(blocks, n*(n+1)/2)
	bounds = append(bounds[:0], 0)
	for i, cells := 0, 0; i < n; i++ {
		cells += n - i
		// A run ends at the first row that reaches its share of the cells.
		if cells*blocks >= len(bounds)*n*(n+1)/2 || i == n-1 {
			bounds = append(bounds, i+1)
		}
	}
	if n == 0 {
		bounds = append(bounds, 0)
	}
	return bounds
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
