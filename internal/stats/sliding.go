package stats

import (
	"math"
	"sync"
	"sync/atomic"
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
// Correlations are derived on demand, row by row through Rows or as a full
// matrix through Corr.
//
// A window step can be applied at once (Slide) or recorded (Defer) and
// applied later, either by Apply or by a Rows view that slides each
// triangle row just before deriving it, so a round that reads the
// correlations passes over the triangle once however many columns it
// consumed. Both leave the bits of one Slide per step.
//
// Floating-point drift accumulates in the sums as columns slide through, at
// roughly one ulp per update. Callers bound it by refreshing periodically
// (the Streamer sums its first round's window exactly and refreshes every
// Config.RefreshEvery rounds after), which recomputes the sums exactly and
// re-anchors ref to the current window; between refreshes the derived
// correlations stay within ~1e-12 of the exact two-pass values, comfortably
// inside the 1e-9 contract the incremental detection path tests against.
// A RefreshRows view sums each row just before deriving it, so a refresh
// round too passes over the triangle once.
//
// A SlidingCorr is not safe for concurrent use, except that a view may
// derive distinct rows concurrently.
type SlidingCorr struct {
	n, w  int
	count int       // columns currently summed (≤ w)
	ref   []float64 // per-sensor shift, anchored at first Push and each Refresh
	sx    []float64 // Σ (x_i − ref_i) per sensor
	sxy   []float64 // Σ d_i·d_j for j ≥ i, packed upper triangle (see PackedLen)
	inv   []float64 // 1/√(count·Σd² − (Σd)²) per sensor as of a view, 0 if constant
	row   []float64 // scratch: one derived correlation row, for Corr
	dev   []float64 // scratch: Slide's one pending step
	// A view: pend holds the steps its rows still apply, rsx the sums with
	// all of them applied; a refresh view (buf set) sums its rows instead
	// from refDev, the deviations (sensor i's at refDev[i·count:]) in buf.
	pend     []float64
	rsx      []float64
	buf      *[]float64
	refDev   []float64
	unsummed atomic.Int64
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
	return &SlidingCorr{
		n:   n,
		w:   w,
		ref: make([]float64, n),
		sx:  make([]float64, n),
		sxy: make([]float64, PackedLen(n)),
		inv: make([]float64, n),
		row: make([]float64, n),
		dev: make([]float64, 0, 2*n),
		rsx: make([]float64, n),
	}
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
// pend[2k·n:(2k+1)·n] and its leaving ones right after. Apply, or a Rows
// view swept row by row, applies it; a refresh makes it void, since the
// window it rebuilds from already holds every pending column and the
// deviations are taken against the reference a refresh replaces.
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
// two steps go through the row per pass, which halves its loads and
// stores. Only the row's own cells are written, so distinct rows may be
// slid concurrently.
func (c *SlidingCorr) slideRow(i int, pend []float64) {
	n := c.n
	row := c.sxy[rowStart(n, i) : rowStart(n, i)+n-i]
	step := 2 * n
	k := 0
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
}

// devBufs recycles a refresh view's n×w deviation scratch, so an
// accumulator keeps no window-sized buffer between refreshes.
var devBufs = sync.Pool{New: func() any { return new([]float64) }}

// RefreshRows is Rows for an exact refresh from the window's rows, rows[i]
// sensor i's in time order. Its O(n·w) pre-pass re-anchors ref to the
// window's first column, sets the count and Σd, writes the deviations into
// pooled scratch and takes the norms from the summed diagonal; deriving
// row i first sums its pair sums. Every sum runs from zero in time order,
// Push's order, so once every row is read the sums hold the bits w Pushes
// into an empty accumulator leave and the scratch is back in the pool.
// Pending steps (see Defer) are void: the window holds their columns.
func (c *SlidingCorr) RefreshRows(rows [][]float64) CorrRows {
	n := c.n
	if n == 0 {
		c.count = 0
		return CorrRows{c} // no row to sum, so no scratch to take
	}
	w := len(rows[0])
	c.count = w
	if c.buf == nil {
		c.buf = devBufs.Get().(*[]float64)
	}
	if cap(*c.buf) < n*w {
		*c.buf = make([]float64, n*w)
	}
	c.refDev = (*c.buf)[:n*w]
	for i, ri := range rows[:n] {
		var ref, s, ss float64
		if w > 0 {
			ref = ri[0]
		}
		c.ref[i] = ref
		di := c.refDev[i*w : (i+1)*w]
		for u, x := range ri[:w] {
			di[u] = x - ref
			s += di[u]
			ss += di[u] * di[u]
		}
		c.sx[i] = s
		c.norm(i, s, ss)
	}
	c.unsummed.Store(int64(n))
	return CorrRows{c}
}

// sumRow writes row i's pair sums from the refresh view's deviations, each
// cell dot's sum of its two rows, four cells at a time so each of sensor
// i's deviations is loaded once per four products. The partner rows are
// resliced to len(di) so the inner loops carry no bounds checks.
func (c *SlidingCorr) sumRow(i int) {
	n, w, dev := c.n, c.count, c.refDev
	di := dev[i*w : (i+1)*w]
	row := c.sxy[rowStart(n, i) : rowStart(n, i)+n-i]
	j := i
	for ; j+4 <= n; j += 4 {
		d0 := dev[j*w : (j+1)*w][:len(di)]
		d1 := dev[(j+1)*w : (j+2)*w][:len(di)]
		d2 := dev[(j+2)*w : (j+3)*w][:len(di)]
		d3 := dev[(j+3)*w : (j+4)*w][:len(di)]
		var s0, s1, s2, s3 float64
		for u, a := range di {
			s0 += a * d0[u]
			s1 += a * d1[u]
			s2 += a * d2[u]
			s3 += a * d3[u]
		}
		row[j-i], row[j-i+1], row[j-i+2], row[j-i+3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		row[j-i] = dot(di, dev[j*w:(j+1)*w])
	}
}

// dot returns Σ a[u]·b[u] summed in order from zero.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for u, x := range a {
		s += x * b[u]
	}
	return s
}

// Rows prepares one round of correlation reads from the current sums with
// the pending steps pend (see Defer, nil for none) applied. A pre-pass
// computes every sensor's slid deviation sum and, from the slid diagonal,
// its inverse norm; it writes no sum. The returned view then derives the
// strict upper triangle of the correlation matrix one row at a time, in
// the sums' storage order, so no n×n matrix is built. Deriving row i
// first applies pend to that row's pair sums and to sensor i's deviation
// sum, in place, so a view over pending steps is a single sweep: each row
// is read once, and At is read before the rows it touches are. Once every
// row is read the sums hold the bits Apply(pend) leaves. A view stays
// valid until the accumulator next changes or a view is prepared again.
func (c *SlidingCorr) Rows(pend []float64) CorrRows {
	c.pend, c.buf, c.refDev = pend, nil, nil
	for i := 0; i < c.n; i++ {
		c.norm(i, c.slidSum(i, pend), c.slidCell(i, i, pend))
	}
	return CorrRows{c}
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

// CorrRows is one round's read view of a SlidingCorr; see SlidingCorr.Rows
// and SlidingCorr.RefreshRows.
type CorrRows struct{ c *SlidingCorr }

// UpperRow writes the correlations r(i, j) for j = i+1, …, n−1 into
// dst[:n−1−i] and returns that slice, with the same conventions as
// PearsonMatrix: values are clamped to [-1, 1], and every pair involving a
// constant (zero-variance) sensor is 0. Row i's pending steps are applied
// first, or a refresh view sums the row first, the last one summed
// returning the scratch. Calls for distinct rows may run concurrently.
func (r CorrRows) UpperRow(i int, dst []float64) []float64 {
	c := r.c
	n := c.n
	if c.buf != nil {
		c.sumRow(i)
		if c.unsummed.Add(-1) == 0 {
			devBufs.Put(c.buf)
			c.buf, c.refDev = nil, nil
		}
	} else if len(c.pend) > 0 {
		c.slideRow(i, c.pend)
		c.sx[i] = c.rsx[i]
	}
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
	return dst
}

// At returns the single correlation r(i, j), i < j: the value UpperRow(i)
// derives for j, bit for bit, provided row i has not been read yet (on a
// refresh view, from the dot product UpperRow(i) sums for the cell).
func (r CorrRows) At(i, j int) float64 {
	c := r.c
	if c.inv[i] == 0 || c.inv[j] == 0 {
		return 0
	}
	var s float64
	if w := c.count; c.buf != nil {
		s = dot(c.refDev[i*w:(i+1)*w], c.refDev[j*w:(j+1)*w])
	} else {
		s = c.slidCell(i, j, c.pend)
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
// accumulator.
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
