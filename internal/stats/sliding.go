package stats

import (
	"math"
	"runtime"

	"cad/internal/offheap"
)

// slidingConstEps is the relative threshold below which a sensor's summed
// variance is treated as zero. Maintaining variances as w·Σx² − (Σx)² leaves
// ulp-sized residue on constant rows (the exact cancellation PearsonMatrix
// gets from centering first), so constancy is decided against the magnitude
// of the terms being cancelled rather than against absolute zero.
const slidingConstEps = 1e-12

// SlidingCorr maintains the pairwise Pearson correlations of n sensors over
// a sliding window of up to w columns with O(n²) work per column — the
// rank-one alternative to recomputing PearsonMatrix at O(n²·w) per round.
// It keeps running sums Σd per sensor and Σd_i·d_j per sensor pair of the
// deviations d = x − ref, where ref is a fixed per-sensor reference value
// (Pearson correlation is shift-invariant, and shifting defeats the
// catastrophic cancellation a raw-sum formulation suffers on data with a
// large offset). The pair sums are symmetric, so only the upper triangle,
// diagonal included, is stored: n(n+1)/2 values, packed row by row.
// Correlations are derived on demand, row by row through a view
// (StripeRows) or as a full matrix through Corr.
//
// A window step can be applied at once (Slide) or recorded (Defer) and
// applied later, either by Apply or by a view that slides each
// triangle row just before deriving it, so a round that reads the
// correlations passes over the triangle once however many columns it
// consumed. Both leave the bits of one Slide per step.
//
// Floating-point drift accumulates in the sums as columns slide through, at
// roughly one ulp per update. Callers bound it by re-summing rows exactly
// from the window: a StripeRows view sums a stripe of rows exactly, its
// sensors' ref re-anchored to the window, and slides the rest in the same
// sweep. The Streamer sums every row on its first round and one stripe per
// round after, so each cell is re-summed once every Config.RefreshEvery
// rounds; in between the derived correlations stay within ~1e-12 of the
// exact two-pass values, comfortably inside the 1e-9 contract the
// incremental detection path tests against.
//
// The triangle is the accumulator's bulk, 4 MB at n=1000, and lives for
// the accumulator's lifetime, so it is allocated off the Go heap
// (offheap.New) and Release frees it. Should the accumulator become
// unreachable unreleased, the block's finalizer frees it, so a method
// that reads the triangle through a local slice after its last use of the
// accumulator keeps the accumulator alive to the end (runtime.KeepAlive).
//
// A SlidingCorr is not safe for concurrent use, except that a view may
// derive distinct rows concurrently.
type SlidingCorr struct {
	n, w  int
	count int       // columns currently summed (≤ w)
	ref   []float64 // per-sensor shift, anchored at first Push and each exact re-sum
	sx    []float64 // Σ (x_i − ref_i) per sensor
	sxy   []float64 // Σ d_i·d_j for j ≥ i, packed upper triangle (see PackedLen), in blk
	blk   *offheap.Block
	inv   []float64 // 1/√(count·Σd² − (Σd)²) per sensor as of a view, 0 if constant
	row   []float64 // scratch: one derived correlation row, for Corr
	dev   []float64 // scratch: Slide's one pending step
	// A view: pend holds the steps its slid rows still apply, rsx the
	// sums as of the view. Its stripe, rows [lo, hi), is summed from the
	// window win instead, whose oldest column sits at slot oldest;
	// shift[j−lo] is ref_j's move when the view re-anchored stripe sensor
	// j, which the slid rows' cells in column j take on.
	pend           []float64
	rsx            []float64
	win            [][]float64
	oldest, lo, hi int
	shift          []float64
	// corr is the materialized matrix Corr returns, allocated on its first
	// call and reused after; the round path never builds it.
	corr [][]float64
}

// PackedLen returns the number of values in the packed upper triangle,
// diagonal included, of an n×n symmetric matrix: n(n+1)/2. Row i occupies
// the n−i values starting at i·n − i(i−1)/2, its diagonal entry first.
func PackedLen(n int) int { return n * (n + 1) / 2 }

// rowStart returns the packed index of diagonal entry (i, i).
func rowStart(n, i int) int { return i*n - i*(i-1)/2 }

// PackUpper packs the upper triangle, diagonal included, of a row-major n×n
// matrix into the storage order of SlidingCorr's pair sums, copying every
// value bit for bit. It returns nil when len(full) != n·n.
func PackUpper(full []float64, n int) []float64 {
	if n < 0 || len(full) != n*n {
		return nil
	}
	out := make([]float64, 0, PackedLen(n))
	for i := 0; i < n; i++ {
		out = append(out, full[i*n+i:(i+1)*n]...)
	}
	return out
}

// NewSlidingCorr returns an empty accumulator for n sensors and window w.
func NewSlidingCorr(n, w int) *SlidingCorr {
	blk := offheap.New(PackedLen(n))
	return &SlidingCorr{
		n:     n,
		w:     w,
		ref:   make([]float64, n),
		sx:    make([]float64, n),
		sxy:   blk.Floats(),
		blk:   blk,
		inv:   make([]float64, n),
		row:   make([]float64, n),
		dev:   make([]float64, 0, 2*n),
		rsx:   make([]float64, n),
		shift: make([]float64, n),
	}
}

// Release frees the pair-sum triangle. Any later use of the accumulator
// that reads or writes the sums panics on their nil slice.
func (c *SlidingCorr) Release() {
	c.blk.Free()
	c.sxy, c.win = nil, nil
}

// Sensors returns n.
func (c *SlidingCorr) Sensors() int { return c.n }

// Window returns the configured window length w.
func (c *SlidingCorr) Window() int { return c.w }

// Count returns the number of columns currently contributing to the sums.
func (c *SlidingCorr) Count() int { return c.count }

// Push adds one column while the window is still filling (Count < Window).
// Once full, use Slide instead so the oldest column leaves as the new one
// enters. The very first column becomes the shift reference.
func (c *SlidingCorr) Push(col []float64) {
	n := c.n
	if c.count == 0 {
		copy(c.ref, col)
	}
	d := c.dev[:n]
	for i := 0; i < n; i++ {
		d[i] = col[i] - c.ref[i]
	}
	off := 0
	for i := 0; i < n; i++ {
		di := d[i]
		c.sx[i] += di
		row := c.sxy[off : off+n-i]
		for t, dj := range d[i:n] {
			row[t] += di * dj
		}
		off += n - i
	}
	if c.count < c.w {
		c.count++
	}
}

// Slide applies one rank-one window step: newCol enters the window, oldCol
// (the evicted column, in the same sensor order) leaves it. The window must
// be full.
func (c *SlidingCorr) Slide(newCol, oldCol []float64) {
	c.dev = c.Defer(c.dev[:0], newCol, oldCol)
	c.Apply(c.dev)
}

// Defer records one window step without applying it: it appends the
// deviations from the shift reference of newCol (entering) and then of
// oldCol (leaving) to pend and returns the extended slice. A pending list
// of m steps is 2·m·n values, step k's entering deviations at
// pend[2k·n:(2k+1)·n] and its leaving ones right after. Apply, or a view
// swept row by row, applies it; on a view's stripe rows it is void, since
// the window they are summed from already holds every pending column.
func (c *SlidingCorr) Defer(pend, newCol, oldCol []float64) []float64 {
	for _, col := range [2][]float64{newCol, oldCol} {
		for i, x := range col[:c.n] {
			pend = append(pend, x-c.ref[i])
		}
	}
	return pend
}

// Apply applies the pending steps pend (see Defer) to the sums, leaving
// the bits that one Slide per step, in order, would.
func (c *SlidingCorr) Apply(pend []float64) {
	for i := 0; i < c.n; i++ {
		c.sx[i] = c.slidSum(i, pend)
		c.slideRow(i, pend)
	}
	runtime.KeepAlive(c)
}

// slidSum returns sensor i's deviation sum with the pending steps applied,
// one step at a time in Slide's arithmetic.
func (c *SlidingCorr) slidSum(i int, pend []float64) float64 {
	n, s := c.n, c.sx[i]
	for k := 0; k < len(pend); k += 2 * n {
		s += pend[k+i] - pend[k+n+i]
	}
	return s
}

// slideRow applies the pending steps to triangle row i in place. Each cell
// receives the steps in order as d_ij += n_i·n_j − o_i·o_j, Slide's
// arithmetic, so the cell ends up with the bits that many Slides leave;
// up to four steps go through the row per pass, so an S=4 round loads and
// stores each cell once. Only the row's own cells are written, so distinct rows may be
// slid concurrently.
func (c *SlidingCorr) slideRow(i int, pend []float64) {
	n := c.n
	row := c.sxy[rowStart(n, i) : rowStart(n, i)+n-i]
	step := 2 * n
	k := 0
	for ; k+4*step <= len(pend); k += 4 * step {
		n0, o0 := pend[k+i : k+n][:len(row)], pend[k+n+i : k+step][:len(row)]
		n1, o1 := pend[k+step+i : k+step+n][:len(row)], pend[k+step+n+i : k+2*step][:len(row)]
		n2, o2 := pend[k+2*step+i : k+2*step+n][:len(row)], pend[k+2*step+n+i : k+3*step][:len(row)]
		n3, o3 := pend[k+3*step+i : k+3*step+n][:len(row)], pend[k+3*step+n+i : k+4*step][:len(row)]
		a0, b0, a1, b1 := n0[0], o0[0], n1[0], o1[0]
		a2, b2, a3, b3 := n2[0], o2[0], n3[0], o3[0]
		for t, v := range row {
			v += a0*n0[t] - b0*o0[t]
			v += a1*n1[t] - b1*o1[t]
			v += a2*n2[t] - b2*o2[t]
			v += a3*n3[t] - b3*o3[t]
			row[t] = v
		}
	}
	for ; k+2*step <= len(pend); k += 2 * step {
		n0, o0 := pend[k+i : k+n][:len(row)], pend[k+n+i : k+step][:len(row)]
		n1, o1 := pend[k+step+i : k+step+n][:len(row)], pend[k+step+n+i : k+2*step][:len(row)]
		a0, b0, a1, b1 := n0[0], o0[0], n1[0], o1[0]
		for t, v := range row {
			v += a0*n0[t] - b0*o0[t]
			v += a1*n1[t] - b1*o1[t]
			row[t] = v
		}
	}
	if k < len(pend) {
		dn, do := pend[k+i : k+n][:len(row)], pend[k+n+i : k+step][:len(row)]
		ni, oi := dn[0], do[0]
		for t := range row {
			row[t] += ni*dn[t] - oi*do[t]
		}
	}
}

// slidCell returns pair sum (i, j), i ≤ j, with the pending steps applied
// in slideRow's arithmetic, without writing it.
func (c *SlidingCorr) slidCell(i, j int, pend []float64) float64 {
	n, v := c.n, c.sxy[rowStart(c.n, i)+j-i]
	for k := 0; k < len(pend); k += 2 * n {
		v += pend[k+i]*pend[k+j] - pend[k+n+i]*pend[k+n+j]
	}
	return v
}

// Refresh recomputes the sums exactly from the window's current rows,
// discarding any drift the incremental updates accumulated: it reads every
// row of a RefreshRows view in turn.
func (c *SlidingCorr) Refresh(rows [][]float64) {
	for i, v := 0, c.RefreshRows(rows); i < c.n; i++ {
		v.UpperRow(i, c.row)
	}
	c.win = nil
}

// RefreshRows is StripeRows with every row in the stripe, over a window
// whose rows[i] is sensor i's readings in time order: a view that sums
// every pair sum exactly as it derives the row. Every sum runs from zero
// in time order, Push's order, so once every row is read the sums hold
// the bits w Pushes into an empty accumulator leave.
func (c *SlidingCorr) RefreshRows(rows [][]float64) CorrRows {
	return c.StripeRows(nil, rows, 0, 0, c.n)
}

// Rows is StripeRows with an empty stripe: a view that only applies the
// pending steps pend (see Defer, nil for none).
func (c *SlidingCorr) Rows(pend []float64) CorrRows {
	return c.StripeRows(pend, nil, 0, 0, 0)
}

// StripeRows prepares one round of correlation reads: rows [lo, hi), the
// stripe, are summed exactly from the window, and every other row is
// slid by the pending steps pend (see Defer, nil for none). win holds the
// window in a ring: sensor i's readings are win[i], oldest at slot oldest,
// in time order from there round to the slot before it. Nothing is
// copied; the view reads win in place.
//
// An O(n·S + (hi−lo)·w) pre-pass computes each sensor's deviation sum and,
// from its diagonal pair sum, its inverse norm, writing no pair sum: a
// slid sensor's from its slid sums, a stripe sensor's summed exactly after
// re-anchoring its ref to the window's oldest reading. The returned view
// then derives the strict upper triangle of the correlation matrix one
// row at a time, in the sums' storage order, so no n×n matrix is built.
// Deriving row i first brings its pair sums up to date in place: a stripe
// row sums every cell exactly, its pending steps void since the window
// holds their columns; any other row applies its pending steps and then
// moves each cell whose column sensor j was re-anchored into j's new
// frame, sxy_ij += (ref_j − ref_j′)·Σd_i, which is exact in real
// arithmetic. Each row is read once, and At is read before the rows it
// touches are. A view stays valid until the accumulator next changes or a
// view is prepared again.
//
// With an empty stripe the sums end as Apply(pend) leaves them. With
// every row in it they end as the window's columns pushed into an empty
// accumulator leave them, whatever they held before: a Streamer's first
// round. Sliding a stream through rounds whose stripes cover every row
// once per cycle re-sums each cell exactly once per cycle.
func (c *SlidingCorr) StripeRows(pend []float64, win [][]float64, oldest, lo, hi int) CorrRows {
	c.pend, c.win, c.oldest, c.lo, c.hi = pend, win, oldest, lo, hi
	if lo < hi {
		c.count = len(win[0])
	}
	for i := 0; i < c.n; i++ {
		if i < lo || i >= hi {
			c.norm(i, c.slidSum(i, pend), c.slidCell(i, i, pend))
			continue
		}
		xi := win[i]
		var ref float64
		if len(xi) > 0 {
			ref = xi[oldest]
		}
		c.shift[i-lo] = c.ref[i] - ref
		c.ref[i] = ref
		s, ss := devSums(xi[oldest:], ref, 0, 0)
		s, ss = devSums(xi[:oldest], ref, s, ss)
		c.norm(i, s, ss)
	}
	return CorrRows{c}
}

// devSums adds to s and ss the deviations of xs from ref and their
// squares, in order.
func devSums(xs []float64, ref, s, ss float64) (float64, float64) {
	for _, x := range xs {
		d := x - ref
		s += d
		ss += d * d
	}
	return s, ss
}

// inStripe reports whether sensor i's row is summed exactly by the view.
func (c *SlidingCorr) inStripe(i int) bool { return c.lo <= i && i < c.hi }

// sumRow writes row i's pair sums exactly from the window: each cell is
// Σ (x_i − ref_i)(x_j − ref_j) from zero in time order, the window's ring
// read as its two spans. Four cells go at a time, so each of sensor i's
// readings is loaded once per four products. The partner rows are
// resliced to the span of i's so the inner loop carries no bounds checks.
func (c *SlidingCorr) sumRow(i int) {
	n, win, ref := c.n, c.win, c.ref
	xi, ri := win[i], ref[i]
	spans := [2][2]int{{c.oldest, len(xi)}, {0, c.oldest}}
	row := c.sxy[rowStart(n, i) : rowStart(n, i)+n-i]
	j := i
	for ; j+4 <= n; j += 4 {
		r0, r1, r2, r3 := ref[j], ref[j+1], ref[j+2], ref[j+3]
		var s0, s1, s2, s3 float64
		for _, sp := range spans {
			a := xi[sp[0]:sp[1]]
			x0 := win[j][sp[0]:sp[1]][:len(a)]
			x1 := win[j+1][sp[0]:sp[1]][:len(a)]
			x2 := win[j+2][sp[0]:sp[1]][:len(a)]
			x3 := win[j+3][sp[0]:sp[1]][:len(a)]
			for u, x := range a {
				d := x - ri
				s0 += d * (x0[u] - r0)
				s1 += d * (x1[u] - r1)
				s2 += d * (x2[u] - r2)
				s3 += d * (x3[u] - r3)
			}
		}
		row[j-i], row[j-i+1], row[j-i+2], row[j-i+3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		row[j-i] = c.exact(i, j)
	}
}

// exact returns pair sum (i, j) summed from the window as sumRow sums it.
func (c *SlidingCorr) exact(i, j int) float64 {
	w := len(c.win[i])
	return c.dot(c.dot(0, i, j, c.oldest, w), i, j, 0, c.oldest)
}

// dot adds to s the deviation products of sensors i and j over window
// slots [a, b), in slot order.
func (c *SlidingCorr) dot(s float64, i, j, a, b int) float64 {
	xi := c.win[i][a:b]
	xj := c.win[j][a:b][:len(xi)]
	ri, rj := c.ref[i], c.ref[j]
	for u, x := range xi {
		s += (x - ri) * (xj[u] - rj)
	}
	return s
}

// norm records sensor i's deviation sum sx for a view and, from it and
// the sensor's diagonal pair sum ss, its inverse norm, 0 if constant.
func (c *SlidingCorr) norm(i int, sx, ss float64) {
	w := float64(c.count)
	c.rsx[i] = sx
	v := w*ss - sx*sx
	// Relative constancy test: v is the difference of the two magnitude
	// terms, so residue ~ulp·scale means a constant row.
	if scale := w*ss + sx*sx; v <= slidingConstEps*scale {
		c.inv[i] = 0
	} else {
		c.inv[i] = 1 / math.Sqrt(v)
	}
}

// CorrRows is one round's read view of a SlidingCorr; see
// SlidingCorr.StripeRows.
type CorrRows struct{ c *SlidingCorr }

// UpperRow writes the correlations r(i, j) for j = i+1, …, n−1 into
// dst[:n−1−i] and returns that slice, with the same conventions as
// PearsonMatrix: values are clamped to [-1, 1], and every pair involving a
// constant (zero-variance) sensor is 0. Row i's pair sums are brought up
// to date first (see StripeRows). Calls for distinct rows may run
// concurrently.
func (r CorrRows) UpperRow(i int, dst []float64) []float64 {
	c := r.c
	n := c.n
	if c.inStripe(i) {
		c.sumRow(i)
	} else {
		if len(c.pend) > 0 {
			c.slideRow(i, c.pend)
		}
		if i < c.lo {
			start := rowStart(n, i) - i
			row := c.sxy[start+c.lo : start+c.hi]
			si := c.rsx[i]
			for t, d := range c.shift[:len(row)] {
				row[t] += d * si
			}
		}
	}
	c.sx[i] = c.rsx[i]
	dst = dst[:n-1-i]
	inv := c.inv[i+1 : n]
	if c.inv[i] == 0 {
		clear(dst)
		return dst
	}
	w := float64(c.count)
	start := rowStart(n, i) + 1
	sxy := c.sxy[start : start+len(dst)]
	sxj := c.rsx[i+1 : n]
	si, ii := c.rsx[i], c.inv[i]
	for t := range dst {
		var v float64
		if inv[t] != 0 {
			v = pearson(w, sxy[t], si, sxj[t], ii, inv[t])
		}
		dst[t] = v
	}
	runtime.KeepAlive(c)
	return dst
}

// At returns the single correlation r(i, j), i < j: the value UpperRow(i)
// derives for j, bit for bit, provided row i has not been read yet.
func (r CorrRows) At(i, j int) float64 {
	c := r.c
	if c.inv[i] == 0 || c.inv[j] == 0 {
		return 0
	}
	var s float64
	if c.inStripe(i) {
		s = c.exact(i, j)
	} else {
		s = c.slidCell(i, j, c.pend)
		if c.inStripe(j) {
			s += c.shift[j-c.lo] * c.rsx[i]
		}
	}
	return pearson(float64(c.count), s, c.rsx[i], c.rsx[j], c.inv[i], c.inv[j])
}

// pearson derives one correlation from the window's column count w, the
// pair's deviation product sum sxy, both sensors' deviation sums and their
// inverse norms, clamped to [-1, 1]. Every derivation goes through it, so a
// pair's value does not depend on how it is read.
func pearson(w, sxy, si, sj, invI, invJ float64) float64 {
	v := (w*sxy - si*sj) * invI * invJ
	if v > 1 {
		return 1
	} else if v < -1 {
		return -1
	}
	return v
}

// Corr derives the full Pearson correlation matrix from the current sums,
// with the same conventions as PearsonMatrix: entries are clamped to
// [-1, 1], constant (zero-variance) rows are all zero including the
// diagonal, and every other diagonal entry is 1. Every off-diagonal entry
// equals the one Rows derives. The matrix is allocated on the first call,
// owned by the accumulator and overwritten by the next call.
func (c *SlidingCorr) Corr() [][]float64 {
	n := c.n
	if c.corr == nil {
		cells := make([]float64, n*n)
		c.corr = make([][]float64, n)
		for i := range c.corr {
			c.corr[i] = cells[i*n : (i+1)*n]
		}
	}
	rows := c.Rows(nil)
	for i := 0; i < n; i++ {
		ci := c.corr[i]
		ci[i] = 0
		if c.inv[i] != 0 {
			ci[i] = 1
		}
		for t, r := range rows.UpperRow(i, c.row) {
			j := i + 1 + t
			ci[j] = r
			c.corr[j][i] = r
		}
	}
	return c.corr
}

// State exposes the accumulator's internals for persistence: the shift
// reference, the per-sensor deviation sums, the packed pair-sum triangle
// (PackedLen(n) values), and the column count. The returned slices alias
// internal storage; callers must copy or encode them before mutating the
// accumulator, and keep the accumulator reachable while they read them,
// since the triangle is freed with it.
func (c *SlidingCorr) State() (ref, sx, sxy []float64, count int) {
	return c.ref, c.sx, c.sxy, c.count
}

// SetState restores the accumulator from persisted internals, sxy in the
// packed layout State returns. It reports whether the slice shapes matched;
// on false the accumulator is unchanged.
func (c *SlidingCorr) SetState(ref, sx, sxy []float64, count int) bool {
	if len(ref) != c.n || len(sx) != c.n || len(sxy) != PackedLen(c.n) || count < 0 || count > c.w {
		return false
	}
	copy(c.ref, ref)
	copy(c.sx, sx)
	copy(c.sxy, sxy)
	c.count = count
	return true
}
