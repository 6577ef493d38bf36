// Package louvain implements the Louvain method for community detection
// (Blondel et al. 2008), the partitioning step CAD runs on every TSG
// (paper §IV-B). The implementation is deterministic: vertices are scanned
// in ascending id order and ties in modularity gain break toward the
// lowest community id, so repeated runs on the same graph yield the same
// partition — a property the paper's robustness claims rely on.
package louvain

import (
	"math"
	"slices"

	"cad/internal/tsg"
)

// Partition assigns each vertex a community id in [0, Count). Ids are
// compacted (consecutive from 0) and canonicalized: community ids appear in
// order of their lowest member vertex.
type Partition struct {
	// Of[v] is the community id of vertex v.
	Of []int
	// Count is the number of communities.
	Count int
}

// Members returns the vertex sets of each community, indexed by community
// id, each sorted ascending.
func (p Partition) Members() [][]int {
	out := make([][]int, p.Count)
	for v, c := range p.Of {
		out[c] = append(out[c], v)
	}
	return out
}

// Same reports whether vertices u and v share a community.
func (p Partition) Same(u, v int) bool { return p.Of[u] == p.Of[v] }

// Workspace holds the scratch of community detection, so that the runs a
// stream makes round after round reuse it instead of allocating: a run
// allocates only the Partition it returns. The zero value is ready to use.
// A Workspace is not safe for concurrent use.
type Workspace struct {
	// base is the graph being partitioned, read in place; agg holds the
	// levels aggregate builds, which alternate between the two.
	base level
	agg  [2]level

	comm       []int     // onePass: community of each vertex
	commDegree []float64 // onePass: Σ degree of each community's members
	// neighW[c] accumulates the weight from one vertex (onePass) or one
	// community (aggregate) to community c. touched lists the c with
	// mark[c] set; both are reset after each use, so they stay all-zero
	// between uses.
	neighW  []float64
	mark    []bool
	touched []int

	remap      []int // canon: new id of each old id, −1 when unseen
	node2final []int // cold: level vertex of each original vertex
	seed       []int // CommunitiesSeeded: the seed as onePass takes it
	members    []int // aggregate: vertices grouped by community
	start      []int // aggregate: members[start[c]:start[c+1]] is c
}

// level is one level of the multi-level optimization, stored flat: vertex
// v's neighbors are nbr[off[v]:off[v+1]] in ascending id order. An edge's
// strength is |w|, and edges of strength zero do not count; the first
// level is the TSG's own arrays, signed, and aggregated levels hold only
// positive strengths.
type level struct {
	n        int
	off      []int
	nbr      []int
	w        []float64
	selfLoop []float64 // aggregated self-loop weight per vertex
	degree   []float64 // weighted degree incl. 2·selfLoop
	total2m  float64   // 2m = Σ degree
}

// reset empties lv for n vertices; the rows are the caller's to set.
func (lv *level) reset(n int) {
	lv.n = n
	lv.selfLoop = resize(lv.selfLoop, n)
	clear(lv.selfLoop)
	lv.degree = resize(lv.degree, n)
	clear(lv.degree)
	lv.total2m = 0
}

func (lv *level) adj(v int) ([]int, []float64) {
	lo, hi := lv.off[v], lv.off[v+1]
	return lv.nbr[lo:hi], lv.w[lo:hi]
}

// load makes g the base level, reading its rows in place.
func (ws *Workspace) load(g *tsg.Graph) *level {
	lv := &ws.base
	lv.reset(g.N())
	lv.off, lv.nbr, lv.w = g.CSR()
	for u := 0; u < lv.n; u++ {
		_, wts := lv.adj(u)
		for _, w := range wts {
			lv.degree[u] += math.Abs(w) // correlation strength
		}
	}
	for _, d := range lv.degree {
		lv.total2m += d
	}
	return lv
}

// Communities partitions the TSG into communities by modularity
// optimization. Edgeless graphs (or all-zero weights) yield singleton
// communities. It runs on a fresh Workspace; see Workspace.Communities.
func Communities(g *tsg.Graph) Partition {
	return new(Workspace).Communities(g)
}

// Communities is the package-level Communities run on ws's scratch.
func (ws *Workspace) Communities(g *tsg.Graph) Partition {
	n := g.N()
	if n == 0 {
		return Partition{Of: nil, Count: 0}
	}
	lv := ws.load(g)
	if lv.total2m == 0 {
		return singletons(n)
	}
	return ws.cold(lv)
}

// CommunitiesSeeded warm-starts community detection from a previous
// partition: it runs one local-moving pass seeded with the previous
// assignment, and if no vertex moves — the common case when the graph
// changed only slightly between rounds — the seed is still a local optimum
// and is returned directly, skipping the full multi-level rebuild. The
// moment any vertex does move, the warm path is abandoned and the whole
// optimization reruns cold, so structural change is handled exactly as
// Communities would.
//
// Two details keep the fast path honest. Vertices the current graph
// isolates (degree zero) are split out of their seeded communities first:
// cold-start leaves them as singletons, and keeping them grouped would
// fabricate co-appearance for sensors that lost all their correlations —
// exactly the ones anomaly detection must notice. And on an unchanged graph
// the result provably equals Communities: either the cold partition is
// vertex-level stable (no moves, seed returned as-is) or it is not (moves
// happen, cold rerun returns it).
//
// A seed of the wrong size, an empty one, or one with an id outside [0, n)
// falls back to a cold start. It runs on a fresh Workspace; see
// Workspace.CommunitiesSeeded.
func CommunitiesSeeded(g *tsg.Graph, seed Partition) Partition {
	return new(Workspace).CommunitiesSeeded(g, seed)
}

// CommunitiesSeeded is the package-level CommunitiesSeeded run on ws's
// scratch.
func (ws *Workspace) CommunitiesSeeded(g *tsg.Graph, seed Partition) Partition {
	n := g.N()
	if len(seed.Of) != n || seed.Count <= 0 || n == 0 || slices.ContainsFunc(seed.Of, func(c int) bool { return c < 0 || c >= n }) {
		return ws.Communities(g)
	}
	lv := ws.load(g)
	if lv.total2m == 0 {
		return singletons(n)
	}
	seedOf := resize(ws.seed, n)
	ws.seed = seedOf
	next := n // above every seed id
	for v := 0; v < n; v++ {
		if lv.degree[v] == 0 {
			seedOf[v] = next // isolated: force a fresh singleton community
			next++
		} else {
			seedOf[v] = seed.Of[v]
		}
	}
	// Recompact ids into [0, n) — the split above pushes them past n.
	ws.canon(seedOf, seedOf)
	comm, count, moved := ws.onePass(lv, seedOf)
	if !moved {
		return Partition{Of: slices.Clone(comm), Count: count}
	}
	return ws.cold(lv)
}

// cold runs the full multi-level optimization on the loaded graph lv,
// which has at least one vertex and positive total weight.
func (ws *Workspace) cold(lv *level) Partition {
	n := lv.n
	// node2final[v] tracks which aggregated node each original vertex
	// currently maps to.
	node2final := resize(ws.node2final, n)
	ws.node2final = node2final
	for i := range node2final {
		node2final[i] = i
	}

	for {
		comm, count, moved := ws.onePass(lv, nil)
		if !moved {
			// Map aggregated communities back to original vertices.
			of := make([]int, n)
			for v := range of {
				of[v] = comm[node2final[v]]
			}
			return Partition{Of: of, Count: ws.canon(of, of)}
		}
		// Aggregate graph by communities and recurse.
		lv = ws.aggregate(lv, comm, count)
		for v := range node2final {
			node2final[v] = comm[node2final[v]]
		}
		if lv.n == 1 {
			return Partition{Of: make([]int, n), Count: 1}
		}
	}
}

func singletons(n int) Partition {
	of := make([]int, n)
	for i := range of {
		of[i] = i
	}
	return Partition{Of: of, Count: n}
}

// onePass runs local moving until no vertex improves modularity, returning
// the compacted, canonical community assignment of lv, the community count,
// and whether any move happened at all. A non-nil seedOf (length n, ids in
// [0,n)) replaces the singleton starting assignment. comm is ws's scratch,
// valid until the next onePass.
func (ws *Workspace) onePass(lv *level, seedOf []int) (comm []int, count int, movedAny bool) {
	n := lv.n
	comm = resize(ws.comm, n)
	commDegree := resize(ws.commDegree, n)
	clear(commDegree)
	ws.comm, ws.commDegree = comm, commDegree
	if seedOf != nil {
		for i := 0; i < n; i++ {
			comm[i] = seedOf[i]
			commDegree[seedOf[i]] += lv.degree[i]
		}
	} else {
		for i := 0; i < n; i++ {
			comm[i] = i
			commDegree[i] = lv.degree[i]
		}
	}
	twoM := lv.total2m
	neighW, mark := ws.scratch(n)

	improved := true
	for improved {
		improved = false
		for v := 0; v < n; v++ {
			cv := comm[v]
			// Weight from v to each neighboring community.
			touched := ws.touched[:0]
			ids, wts := lv.adj(v)
			for i, u := range ids {
				w := math.Abs(wts[i])
				if u == v || w == 0 {
					continue
				}
				c := comm[u]
				if !mark[c] {
					mark[c] = true
					touched = append(touched, c)
				}
				neighW[c] += w
			}
			// Remove v from its community.
			commDegree[cv] -= lv.degree[v]
			// Gain of joining community c:
			//   ΔQ ∝ w(v→c) − degree(v)·Σdeg(c)/2m
			best, bestGain := cv, neighW[cv]-lv.degree[v]*commDegree[cv]/twoM
			// Deterministic order over candidate communities.
			slices.Sort(touched)
			for _, c := range touched {
				gain := neighW[c] - lv.degree[v]*commDegree[c]/twoM
				if gain > bestGain+1e-12 {
					best, bestGain = c, gain
				} else if gain > bestGain-1e-12 && c < best {
					// Tie: break toward the lower community id.
					best, bestGain = c, gain
				}
			}
			for _, c := range touched {
				neighW[c], mark[c] = 0, false
			}
			ws.touched = touched
			commDegree[best] += lv.degree[v]
			if best != cv {
				comm[v] = best
				improved = true
				movedAny = true
			}
		}
	}
	return comm, ws.canon(comm, comm), movedAny
}

// scratch returns neighW and mark sized for n ids. They are all-zero:
// fresh arrays are, and every use resets what it set.
func (ws *Workspace) scratch(n int) ([]float64, []bool) {
	ws.neighW = resize(ws.neighW, n)
	ws.mark = resize(ws.mark, n)
	return ws.neighW, ws.mark
}

// aggregate collapses each of the nc communities of lv into a single node
// of the next level, built in whichever agg buffer lv is not.
func (ws *Workspace) aggregate(lv *level, comm []int, nc int) *level {
	out := &ws.agg[0]
	if lv == out {
		out = &ws.agg[1]
	}
	out.reset(nc)
	out.off = resize(out.off, nc+1)
	out.off[0] = 0
	out.nbr, out.w = out.nbr[:0], out.w[:0]
	// Group the vertices by community, ascending within each: counts land
	// in start[c+2], the prefix sum turns start[c+1] into c's start, and
	// filling advances it to c's end.
	start := resize(ws.start, nc+2)
	clear(start)
	for _, c := range comm {
		start[c+2]++
	}
	for c := 2; c < nc+2; c++ {
		start[c] += start[c-1]
	}
	members := resize(ws.members, lv.n)
	for v, c := range comm {
		members[start[c+1]] = v
		start[c+1]++
	}
	ws.start, ws.members = start, members

	edgeW, mark := ws.scratch(nc)
	for c := 0; c < nc; c++ {
		touched := ws.touched[:0]
		for _, v := range members[start[c]:start[c+1]] {
			out.selfLoop[c] += lv.selfLoop[v]
			ids, wts := lv.adj(v)
			for i, u := range ids {
				w := math.Abs(wts[i])
				if w == 0 {
					continue
				}
				cu := comm[u]
				if cu == c {
					// Each intra-community edge is visited from both
					// endpoints; halve to count once.
					out.selfLoop[c] += w / 2
					continue
				}
				if !mark[cu] {
					mark[cu] = true
					touched = append(touched, cu)
				}
				edgeW[cu] += w
			}
		}
		slices.Sort(touched)
		for _, cu := range touched {
			out.nbr = append(out.nbr, cu)
			out.w = append(out.w, edgeW[cu])
			out.degree[c] += edgeW[cu]
			edgeW[cu], mark[cu] = 0, false
		}
		ws.touched = touched
		out.off[c+1] = len(out.nbr)
		out.degree[c] += 2 * out.selfLoop[c]
	}
	for _, d := range out.degree {
		out.total2m += d
	}
	return out
}

// canon renumbers the non-negative community ids of src into dst, which may
// be src, so that ids increase with the lowest member vertex, making
// partitions comparable across runs. It returns the community count.
func (ws *Workspace) canon(dst, src []int) int {
	top := 0
	for _, c := range src {
		top = max(top, c+1)
	}
	remap := resize(ws.remap, top)
	ws.remap = remap
	for i := range remap {
		remap[i] = -1
	}
	next := 0
	for v, c := range src {
		if remap[c] < 0 {
			remap[c] = next
			next++
		}
		dst[v] = remap[c]
	}
	return next
}

// Modularity computes Newman's modularity Q of the partition on g, using
// absolute edge weights. Useful for testing and ablation.
func Modularity(g *tsg.Graph, p Partition) float64 {
	lv := new(Workspace).load(g)
	if lv.total2m == 0 {
		return 0
	}
	var q float64
	commDeg := make([]float64, p.Count)
	for v := 0; v < lv.n; v++ {
		commDeg[p.Of[v]] += lv.degree[v]
	}
	var intra float64
	for v := 0; v < lv.n; v++ {
		ids, wts := lv.adj(v)
		for i, u := range ids {
			if p.Of[u] == p.Of[v] {
				intra += math.Abs(wts[i])
			}
		}
	}
	q = intra / lv.total2m
	for _, d := range commDeg {
		q -= (d / lv.total2m) * (d / lv.total2m)
	}
	return q
}

// resize returns s with length n, reusing its backing array when it is large
// enough and allocating exactly n otherwise. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
