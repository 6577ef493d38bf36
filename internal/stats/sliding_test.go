package stats

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// windowRows returns the current window (last w columns of cols) as rows,
// the layout PearsonMatrix takes.
func windowRows(cols [][]float64, n, w int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, w)
	}
	start := len(cols) - w
	for t := 0; t < w; t++ {
		for i := 0; i < n; i++ {
			rows[i][t] = cols[start+t][i]
		}
	}
	return rows
}

func maxAbsDiff(a, b [][]float64) float64 {
	var m float64
	for i := range a {
		for j := range a[i] {
			if d := math.Abs(a[i][j] - b[i][j]); d > m {
				m = d
			}
		}
	}
	return m
}

func TestSlidingCorrMatchesPearsonMatrix(t *testing.T) {
	const (
		n, w   = 7, 24
		steps  = 300
		maxErr = 1e-9
	)
	rng := rand.New(rand.NewSource(42))
	c := NewSlidingCorr(n, w)
	var cols [][]float64
	newCol := func() []float64 {
		col := make([]float64, n)
		for i := range col {
			col[i] = 10*rng.NormFloat64() + float64(i)
		}
		// Sensor 3 is constant throughout; sensor 5 nearly tracks sensor 0.
		col[3] = 2.5
		col[5] = col[0] + 0.01*rng.NormFloat64()
		return col
	}
	for t := 0; t < w; t++ {
		col := newCol()
		cols = append(cols, col)
		c.Push(col)
	}
	for s := 0; s < steps; s++ {
		col := newCol()
		old := cols[len(cols)-w]
		cols = append(cols, col)
		c.Slide(col, old)

		got := c.Corr()
		want, err := PearsonMatrix(windowRows(cols, n, w))
		if err != nil {
			t.Fatalf("step %d: PearsonMatrix: %v", s, err)
		}
		if d := maxAbsDiff(got, want); d > maxErr {
			t.Fatalf("step %d: max |diff| = %g > %g", s, d, maxErr)
		}
		for j := 0; j < n; j++ {
			if got[3][j] != 0 || got[j][3] != 0 {
				t.Fatalf("step %d: constant sensor row/col not zeroed at j=%d", s, j)
			}
		}
	}
}

func TestSlidingCorrRefreshDiscardsDrift(t *testing.T) {
	const n, w = 4, 16
	rng := rand.New(rand.NewSource(7))
	c := NewSlidingCorr(n, w)
	var cols [][]float64
	for t := 0; t < w+200; t++ {
		col := make([]float64, n)
		for i := range col {
			col[i] = 1e6 + rng.NormFloat64() // large offset stresses cancellation
		}
		cols = append(cols, col)
		if t < w {
			c.Push(col)
		} else {
			c.Slide(col, cols[t-w])
		}
	}
	rows := windowRows(cols, n, w)
	c.Refresh(rows)
	got := c.Corr()
	want, err := PearsonMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	// After an exact refresh the two formulations differ only by the
	// one-pass vs two-pass evaluation of the same window, not by drift.
	if d := maxAbsDiff(got, want); d > 1e-6 {
		t.Fatalf("post-refresh max |diff| = %g", d)
	}
	if c.Count() != w {
		t.Fatalf("Count() = %d, want %d", c.Count(), w)
	}
}

func TestSlidingCorrPartialWindow(t *testing.T) {
	const n, w = 3, 10
	c := NewSlidingCorr(n, w)
	cols := [][]float64{
		{1, 2, 5}, {2, 4, 5}, {3, 5, 5}, {4, 9, 5},
	}
	for _, col := range cols {
		c.Push(col)
	}
	if c.Count() != len(cols) {
		t.Fatalf("Count() = %d, want %d", c.Count(), len(cols))
	}
	got := c.Corr()
	want, err := PearsonMatrix(windowRows(cols, n, len(cols)))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("partial-window max |diff| = %g", d)
	}
}

func TestSlidingCorrStateRoundTrip(t *testing.T) {
	const n, w = 5, 12
	rng := rand.New(rand.NewSource(11))
	c := NewSlidingCorr(n, w)
	var cols [][]float64
	for t := 0; t < w+30; t++ {
		col := make([]float64, n)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
		cols = append(cols, col)
		if t < w {
			c.Push(col)
		} else {
			c.Slide(col, cols[t-w])
		}
	}
	ref, sx, sxy, count := c.State()
	refCopy := append([]float64(nil), ref...)
	sxCopy := append([]float64(nil), sx...)
	sxyCopy := append([]float64(nil), sxy...)

	d := NewSlidingCorr(n, w)
	if !d.SetState(refCopy, sxCopy, sxyCopy, count) {
		t.Fatal("SetState rejected matching shapes")
	}
	a, b := c.Corr(), d.Corr()
	if diff := maxAbsDiff(a, b); diff != 0 {
		t.Fatalf("restored accumulator diverges: %g", diff)
	}
	if d.SetState(refCopy, sxCopy[:n-1], sxyCopy, count) {
		t.Fatal("SetState accepted wrong sx length")
	}
	if d.SetState(refCopy, sxCopy, sxyCopy, w+1) {
		t.Fatal("SetState accepted count > window")
	}
}

// fullSums is the accumulator's arithmetic on a full row-major n×n pair-sum
// array, upper triangle used: the reference the packed layout must match
// bit for bit.
type fullSums struct {
	n       int
	ref, sx []float64
	sxy     []float64
}

func (f *fullSums) push(col []float64, first bool) {
	if first {
		copy(f.ref, col)
	}
	for i := 0; i < f.n; i++ {
		di := col[i] - f.ref[i]
		f.sx[i] += di
		for j := i; j < f.n; j++ {
			f.sxy[i*f.n+j] += di * (col[j] - f.ref[j])
		}
	}
}

func (f *fullSums) slide(nw, old []float64) {
	for i := 0; i < f.n; i++ {
		ni, oi := nw[i]-f.ref[i], old[i]-f.ref[i]
		f.sx[i] += ni - oi
		for j := i; j < f.n; j++ {
			f.sxy[i*f.n+j] += ni*(nw[j]-f.ref[j]) - oi*(old[j]-f.ref[j])
		}
	}
}

func (f *fullSums) refresh(rows [][]float64) {
	for i := range rows {
		f.ref[i] = rows[i][0]
	}
	for i, ri := range rows {
		var s float64
		for _, x := range ri {
			s += x - f.ref[i]
		}
		f.sx[i] = s
		for j := i; j < f.n; j++ {
			var dot float64
			for t := range ri {
				dot += (ri[t] - f.ref[i]) * (rows[j][t] - f.ref[j])
			}
			f.sxy[i*f.n+j] = dot
		}
	}
}

// TestSlidingCorrPackedMatchesFullLayout drives the packed accumulator and
// the full-layout reference through pushes, slides and refreshes, and
// requires every sum to agree bit for bit, packed by PackUpper.
func TestSlidingCorrPackedMatchesFullLayout(t *testing.T) {
	const n, w = 9, 14
	rng := rand.New(rand.NewSource(5))
	c := NewSlidingCorr(n, w)
	f := &fullSums{n: n, ref: make([]float64, n), sx: make([]float64, n), sxy: make([]float64, n*n)}
	var cols [][]float64
	for step := 0; step < w+120; step++ {
		col := make([]float64, n)
		for i := range col {
			col[i] = 100 + 5*rng.NormFloat64()
		}
		cols = append(cols, col)
		switch {
		case step < w:
			c.Push(col)
			f.push(col, step == 0)
		case step%40 == 0:
			rows := windowRows(cols, n, w)
			c.Refresh(rows)
			f.refresh(rows)
		default:
			c.Slide(col, cols[len(cols)-1-w])
			f.slide(col, cols[len(cols)-1-w])
		}
		ref, sx, sxy, _ := c.State()
		want := PackUpper(f.sxy, n)
		for k := range want {
			if sxy[k] != want[k] {
				t.Fatalf("step %d: packed sum %d = %v, full layout %v", step, k, sxy[k], want[k])
			}
		}
		for i := range sx {
			if sx[i] != f.sx[i] || ref[i] != f.ref[i] {
				t.Fatalf("step %d: sensor %d sums differ", step, i)
			}
		}
		runtime.KeepAlive(c) // State's slices are freed with c
	}
}

// TestSlidingCorrRowsMatchCorr: the round view's rows and single pairs are
// bit-identical to the materialized matrix, constant sensors included.
func TestSlidingCorrRowsMatchCorr(t *testing.T) {
	const n, w = 8, 20
	rng := rand.New(rand.NewSource(3))
	c := NewSlidingCorr(n, w)
	for step := 0; step < w; step++ {
		col := make([]float64, n)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
		col[2] = 7 // constant
		col[6] = -col[1]
		c.Push(col)
	}
	corr := c.Corr()
	rows := c.Rows(nil)
	buf := make([]float64, n)
	for i := 0; i < n; i++ {
		row := rows.UpperRow(i, buf)
		if len(row) != n-1-i {
			t.Fatalf("row %d has %d values, want %d", i, len(row), n-1-i)
		}
		for j := i + 1; j < n; j++ {
			if row[j-i-1] != corr[i][j] || rows.At(i, j) != corr[i][j] {
				t.Fatalf("r(%d,%d): row %v, At %v, Corr %v", i, j, row[j-i-1], rows.At(i, j), corr[i][j])
			}
		}
	}
	if corr[2][2] != 0 || corr[1][6] != -1 {
		t.Fatalf("constant diagonal %v, anti-correlated pair %v", corr[2][2], corr[1][6])
	}
}

func TestPackUpper(t *testing.T) {
	full := []float64{
		1, 2, 3,
		9, 4, 5,
		9, 9, 6,
	}
	got := PackUpper(full, 3)
	want := []float64{1, 2, 3, 4, 5, 6}
	if len(got) != PackedLen(3) {
		t.Fatalf("len %d, want %d", len(got), PackedLen(3))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PackUpper = %v, want %v", got, want)
		}
	}
	if PackUpper(full[:8], 3) != nil {
		t.Fatal("PackUpper accepted a short matrix")
	}
}

// randomRows returns n rows of w readings with a large offset, so the
// shift reference matters.
func randomRows(rng *rand.Rand, n, w int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, w)
		for u := range rows[i] {
			rows[i][u] = 1e3*float64(i%7) + rng.NormFloat64()
		}
	}
	return rows
}

// sameState fails unless a and b hold the same sums bit for bit. Without
// sensors there are no rows to count a refreshed window's columns from, so
// the counts of n=0 accumulators are not compared.
func sameState(t *testing.T, what string, a, b *SlidingCorr) {
	t.Helper()
	ra, sa, pa, ca := a.State()
	rb, sb, pb, cb := b.State()
	if ca != cb && a.n > 0 {
		t.Fatalf("%s: count %d vs %d", what, ca, cb)
	}
	for _, p := range [][2][]float64{{ra, rb}, {sa, sb}, {pa, pb}} {
		for k := range p[0] {
			if math.Float64bits(p[0][k]) != math.Float64bits(p[1][k]) {
				t.Fatalf("%s: value %d is %v vs %v", what, k, p[0][k], p[1][k])
			}
		}
	}
	runtime.KeepAlive(a) // State's slices are freed with a and b
	runtime.KeepAlive(b)
}

// TestSlidingCorrRefreshMatchesPush: Refresh over a window leaves exactly
// the bits of pushing its columns into an empty accumulator, whatever the
// refreshed accumulator held before.
func TestSlidingCorrRefreshMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 3, 4, 5, 32, 257} {
		for _, w := range []int{1, 3, 64} {
			rows := randomRows(rng, n, w)
			pushed := NewSlidingCorr(n, w)
			col := make([]float64, n)
			for u := 0; u < w; u++ {
				for i := range col {
					col[i] = rows[i][u]
				}
				pushed.Push(col)
			}
			refreshed := NewSlidingCorr(n, w)
			for i := range col {
				col[i] = rng.NormFloat64()
			}
			refreshed.Push(col) // stale sums Refresh must discard
			refreshed.Refresh(rows)
			sameState(t, fmt.Sprintf("n=%d w=%d", n, w), refreshed, pushed)
		}
	}
}

// TestSlidingCorrViewsAllocateNothing: preparing a view and reading every
// At and row of it allocates nothing, whether it sums every row exactly
// (a stream's first round) or a stripe of them beside slid rows, so no
// accumulator holds a window-sized buffer. A full view over empty windows
// zeroes every sum, as no Push does.
func TestSlidingCorrViewsAllocateNothing(t *testing.T) {
	const n, w = 40, 16
	rng := rand.New(rand.NewSource(5))
	rows := randomRows(rng, n, w)
	c := NewSlidingCorr(n, w)
	c.Refresh(rows)
	pend := c.Defer(nil, randomRows(rng, 1, n)[0], randomRows(rng, 1, n)[0])
	buf := make([]float64, n)
	read := func(v CorrRows) {
		for i := 0; i+1 < n; i++ {
			v.At(i, n-1)
		}
		for i := 0; i < n; i++ {
			v.UpperRow(i, buf)
		}
	}
	for name, view := range map[string]func() CorrRows{
		"full":   func() CorrRows { return c.StripeRows(nil, rows, 5, 0, n) },
		"stripe": func() CorrRows { return c.StripeRows(pend, rows, 5, 12, 19) },
	} {
		if allocs := testing.AllocsPerRun(10, func() { read(view()) }); allocs != 0 {
			t.Errorf("%s view: %v allocations per round, want 0", name, allocs)
		}
	}
	empty := NewSlidingCorr(n, 0)
	empty.Push(randomRows(rng, 1, n)[0])
	empty.Refresh(randomRows(rng, n, 0))
	sameState(t, "empty windows", empty, NewSlidingCorr(n, 0))
}

// ringOf returns rows rotated so that the oldest reading, rows[i][0],
// sits at slot oldest: the layout of a window ring.
func ringOf(rows [][]float64, oldest int) [][]float64 {
	ring := make([][]float64, len(rows))
	for i, r := range rows {
		ring[i] = make([]float64, len(r))
		for u, x := range r {
			ring[i][(oldest+u)%len(r)] = x
		}
	}
	return ring
}

// TestSlidingCorrStripeRows: a stripe view over pending steps, read with
// its rows split across goroutines, leaves every stripe row's sums equal,
// bit for bit, to an exact re-sum of the window in the view's frame, the
// stripe sensors' ref re-anchored to the window's oldest reading, and
// every other row's within rounding of it after the slides and the
// re-anchoring's column moves. Every At taken before the sweep equals what
// UpperRow derives for the pair. Stripes cover none, some and all rows,
// with the window's oldest column mid-ring.
func TestSlidingCorrStripeRows(t *testing.T) {
	const w, S = 24, 4
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 4, 5, 32, 97} {
		newCol := func() []float64 {
			col := make([]float64, n)
			for i := range col {
				col[i] = 1e3*float64(i%7) + rng.NormFloat64()
			}
			if n > 2 {
				col[1] = 5 // constant
				col[2] = -col[0]
			}
			return col
		}
		cols := make([][]float64, 0, w+S+8)
		for range w + 8 {
			cols = append(cols, newCol())
		}
		base := NewSlidingCorr(n, w)
		base.Refresh(windowRows(cols[:w], n, w))
		for k := w; k < w+8; k++ { // some slid history before the round
			base.Slide(cols[k], cols[k-w])
		}
		for _, st := range [][2]int{{0, 0}, {0, n}, {n / 3, n / 2}, {n / 2, n}, {0, (n + 1) / 2}} {
			lo, hi := st[0], max(st[1], st[0])
			what := fmt.Sprintf("n=%d stripe [%d,%d)", n, lo, hi)
			c := clone(base)
			all := cols
			var pend []float64
			for range S {
				all = append(all, newCol())
				pend = c.Defer(pend, all[len(all)-1], all[len(all)-1-w])
			}
			win := windowRows(all, n, w)
			oldest := len(all) % w
			view := c.StripeRows(pend, ringOf(win, oldest), oldest, lo, hi)
			at := make([][]float64, n)
			for i := range at {
				at[i] = make([]float64, n)
				for j := i + 1; j < n; j++ {
					at[i][j] = view.At(i, j)
				}
			}
			got := make([][]float64, n)
			var wg sync.WaitGroup
			for g := range 3 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]float64, n)
					for i := g; i < n; i += 3 {
						got[i] = append([]float64(nil), view.UpperRow(i, buf)...)
					}
				}()
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				for t0, r := range got[i] {
					if j := i + 1 + t0; math.Float64bits(at[i][j]) != math.Float64bits(r) {
						t.Fatalf("%s: r(%d,%d): UpperRow %v, At %v", what, i, j, r, at[i][j])
					}
				}
			}
			ref, sx, sxy, count := c.State()
			if count != w {
				t.Fatalf("%s: count %d", what, count)
			}
			for i := 0; i < n; i++ {
				if lo <= i && i < hi && ref[i] != win[i][0] {
					t.Fatalf("%s: stripe sensor %d ref %v, want the oldest reading %v", what, i, ref[i], win[i][0])
				}
				var s float64
				for _, x := range win[i] {
					s += x - ref[i]
				}
				checkSum(t, what, fmt.Sprintf("Σd_%d", i), sx[i], s, lo <= i && i < hi)
				for j := i; j < n; j++ {
					var e float64
					for u := range win[i] {
						e += (win[i][u] - ref[i]) * (win[j][u] - ref[j])
					}
					checkSum(t, what, fmt.Sprintf("sxy(%d,%d)", i, j), sxy[rowStart(n, i)+j-i], e, lo <= i && i < hi)
				}
			}
			runtime.KeepAlive(c) // State's slices are freed with c
		}
	}
}

// checkSum fails unless got equals the exact re-sum want: bit for bit if
// exact, else within rounding of the sums' magnitude.
func checkSum(t *testing.T, what, cell string, got, want float64, exact bool) {
	t.Helper()
	if exact && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %s = %v, exact re-sum %v", what, cell, got, want)
	}
	if d := math.Abs(got - want); d > 1e-6 {
		t.Fatalf("%s: %s = %v, off the exact re-sum %v by %g", what, cell, got, want, d)
	}
}

// clone returns an accumulator holding c's sums bit for bit.
func clone(c *SlidingCorr) *SlidingCorr {
	d := NewSlidingCorr(c.n, c.w)
	d.SetState(c.State())
	runtime.KeepAlive(c) // State's slices are freed with c
	return d
}

// TestSlidingCorrSweepMatchesSlides: m slides deferred into a buffer of
// S=4 steps, the way the Streamer holds a round's columns, then swept
// through a Rows view whose rows are derived in blocks across goroutines,
// leave the sums m Slide calls leave, bit for bit. Every At taken before
// the sweep equals what UpperRow derives for the pair, and both equal
// what a view over the slid sums derives. m = S+1 and S+2 overflow the
// buffer, which is then applied before the next step is deferred.
func TestSlidingCorrSweepMatchesSlides(t *testing.T) {
	const w, S = 24, 4
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 3, 4, 5, 32, 257} {
		newCol := func() []float64 {
			col := make([]float64, n)
			for i := range col {
				col[i] = 1e3*float64(i%7) + rng.NormFloat64()
			}
			if n > 2 {
				col[1] = 5 // constant
				col[2] = -col[0]
			}
			return col
		}
		base := NewSlidingCorr(n, w)
		cols := make([][]float64, 0, w+S+2)
		for range w {
			cols = append(cols, newCol())
			base.Push(cols[len(cols)-1])
		}
		base.Slide(newCol(), cols[0]) // some slid history before the round
		cols = cols[1:]
		for m := 1; m <= S+2; m++ {
			what := fmt.Sprintf("n=%d m=%d", n, m)
			steps := make([][2][]float64, m)
			for k := range steps {
				steps[k] = [2][]float64{newCol(), cols[k]}
			}
			slid := clone(base)
			for _, st := range steps {
				slid.Slide(st[0], st[1])
			}
			swept := clone(base)
			pend := make([]float64, 0, 2*S*n)
			for _, st := range steps {
				if len(pend) == cap(pend) {
					swept.Apply(pend)
					pend = pend[:0]
				}
				pend = swept.Defer(pend, st[0], st[1])
			}
			rows := swept.Rows(pend)
			at := make([][]float64, n)
			for i := range at {
				at[i] = make([]float64, n)
				for j := i + 1; j < n; j++ {
					at[i][j] = rows.At(i, j)
				}
			}
			got := make([][]float64, n)
			blocks := []int{0, n / 3, 2 * n / 3, n}
			var wg sync.WaitGroup
			for b := 0; b+1 < len(blocks); b++ {
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					buf := make([]float64, n)
					for i := lo; i < hi; i++ {
						got[i] = append([]float64(nil), rows.UpperRow(i, buf)...)
					}
				}(blocks[b], blocks[b+1])
			}
			wg.Wait()
			sameState(t, what, swept, slid)
			want := slid.Rows(nil)
			buf := make([]float64, n)
			for i := 0; i < n; i++ {
				for t0, r := range want.UpperRow(i, buf) {
					j := i + 1 + t0
					if math.Float64bits(got[i][t0]) != math.Float64bits(r) || math.Float64bits(at[i][j]) != math.Float64bits(r) {
						t.Fatalf("%s: r(%d,%d): swept %v, At %v, slid %v", what, i, j, got[i][t0], at[i][j], r)
					}
				}
			}
		}
	}
}

// BenchmarkSlidingCorrRefresh times one exact refresh of an n=1000, w=64
// window, read serially; a stream's first round sums it inside the TSG
// repair's sweep instead (BenchmarkStreamerRound/refresh refreshes every
// round).
func BenchmarkSlidingCorrRefresh(b *testing.B) {
	const n, w = 1000, 64
	rows := randomRows(rand.New(rand.NewSource(1)), n, w)
	c := NewSlidingCorr(n, w)
	b.ReportAllocs()
	for b.Loop() {
		c.Refresh(rows)
	}
}
