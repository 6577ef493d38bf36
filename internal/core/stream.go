package core

import (
	"fmt"
	"math"
	"slices"

	"cad/internal/mts"
	"cad/internal/offheap"
	"cad/internal/stats"
	"cad/internal/tsg"
)

// Streamer feeds a Detector one time point at a time, emitting a RoundReport
// whenever a full step of new columns has arrived (§IV-F "Generalization":
// when a new round of data arrives, repeat Lines 6–11 of Algorithm 2). It is
// the only round pipeline: Detector.Detect and WarmUp push their series
// through one too. It maintains the trailing window internally in a ring
// buffer, so callers only push columns, and from the first round on the
// window's correlation sums with an O(n²) rank-one update per column
// (stats.SlidingCorr), so a round repairs the TSG instead of recomputing
// it at O(n²·w). A push only records its column's update; the round
// applies a step's updates in the same sweep over the sums that derives
// the correlations and selects the TSG. The same sweep re-sums one stripe
// of rows exactly from the ring, which bounds the updates' drift.
//
// The ring and the accumulator's pair-sum triangle live off the Go heap
// (package offheap); Release frees them, and so do their finalizers once
// an unreleased streamer is unreachable. A method that reads them through
// a local slice after its last use of the streamer therefore keeps the
// streamer alive to the end (runtime.KeepAlive).
//
// A Streamer is not safe for concurrent use.
type Streamer struct {
	det *Detector
	// ring holds the trailing w columns: ring[i][p] is sensor i's reading
	// at ring slot p, backed by ringBlk. pos is the next write slot, which
	// is also the oldest column once the ring has filled.
	ring    [][]float64
	ringBlk *offheap.Block
	pos     int
	filled  int
	// pending counts columns received since the last *successful* round (or
	// since start, for the first round).
	pending int
	started bool
	// seq counts every column ever accepted, including those of rounds
	// that later failed to process. It is persisted with the streamer and
	// is the replay cursor of the manager's write-ahead log: a WAL record
	// numbered at or below seq is already reflected in this state.
	seq uint64
	// base offsets seq into the detector's round-numbering coordinates for
	// WindowEnd stamping: a detector warmed up on R rounds starts the
	// stream R·S columns "into" its own timeline.
	base int
	// acc maintains the window's sliding correlation sums. pend holds the
	// slides (stats.SlidingCorr.Defer) of the columns pushed since the
	// last round, which the next round's sweep applies; it has room for
	// one step's worth, S slides. oldCol is scratch holding the column
	// evicted from the ring by the current Push. stripes cuts the
	// triangle's rows into the refreshEvery stripes of the exact-sum
	// cycle (see processCorr): stripe k is rows [stripes[k], stripes[k+1]),
	// empty from k = len(stripes)−1 on.
	acc          *stats.SlidingCorr
	pend         []float64
	oldCol       []float64
	refreshEvery int
	stripes      []int
	// round processes the round the ring now holds; tests replace it to
	// inject round failures.
	round func() (RoundReport, error)
}

// NewStreamer wraps det for streaming ingestion. The detector may already be
// warmed up.
func NewStreamer(det *Detector) *Streamer {
	n, w := det.Sensors(), det.cfg.Window.W
	ring := make([][]float64, n)
	blk := offheap.New(n * w)
	backing := blk.Floats()
	for i := range ring {
		ring[i] = backing[i*w : (i+1)*w]
	}
	every := det.cfg.RefreshEvery
	if every <= 0 {
		every = 64
	}
	s := &Streamer{
		det:          det,
		ring:         ring,
		ringBlk:      blk,
		base:         det.round * det.cfg.Window.S,
		acc:          stats.NewSlidingCorr(n, w),
		pend:         make([]float64, 0, 2*det.cfg.Window.S*n),
		oldCol:       make([]float64, n),
		refreshEvery: every,
		stripes:      tsg.SplitRows(nil, n, every),
	}
	s.round = s.processCorr
	return s
}

// Release frees the ring and the correlation triangle, which live off the
// Go heap, and leaves the wrapped detector alone. An owner that drops a
// streamer calls it, so the memory returns at once rather than at some
// later garbage collection (their finalizers are only the backstop). A
// Push after Release panics instead of touching freed memory. Releasing
// twice is harmless.
func (s *Streamer) Release() {
	s.ringBlk.Free()
	s.ring = nil
	s.acc.Release()
}

// Detector returns the wrapped detector.
func (s *Streamer) Detector() *Detector { return s.det }

// Seq returns the number of columns accepted so far, counting across
// SaveState/LoadStreamer cycles. It increases by exactly one per accepted
// Push, making it a stable replay cursor for write-ahead logging.
func (s *Streamer) Seq() uint64 { return s.seq }

// Push appends one column of sensor readings. When enough data has
// accumulated to complete a round (w columns for the first round, s more for
// each later one) the round is processed and its report returned with
// ok=true; otherwise ok=false.
//
// If processing the round fails, the pushed column is kept but the round is
// NOT considered complete: the detector state did not advance, and the next
// Push retries with the window slid one column forward. The streamer
// therefore recovers from transient round errors without silently dropping
// rounds or shortening the next round's cadence.
func (s *Streamer) Push(col []float64) (rep RoundReport, ok bool, err error) {
	if len(col) != s.det.Sensors() {
		return RoundReport{}, false, fmt.Errorf("%w: column has %d readings, want %d", ErrBadConfig, len(col), s.det.Sensors())
	}
	// Reject non-finite readings before anything mutates: one NaN in the
	// ring would silently poison the Pearson correlations of every round
	// whose window covers it. HTTP ingest validates earlier, but direct
	// library users and WAL replay land here first.
	for i, v := range col {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return RoundReport{}, false, fmt.Errorf("%w: sensor %d", ErrBadReading, i)
		}
	}
	w, step := s.det.cfg.Window.W, s.det.cfg.Window.S
	need := w
	if s.started {
		// Record the slide before the ring overwrites the leaving column.
		// Until the first round the sums stay empty: that round sums the
		// ring.
		for i := range s.oldCol {
			s.oldCol[i] = s.ring[i][s.pos]
		}
		if len(s.pend) == cap(s.pend) {
			// Failed rounds left a full step pending: apply it now.
			s.applyPending()
		}
		s.pend = s.acc.Defer(s.pend, col, s.oldCol)
		need = step
	}
	for i, v := range col {
		s.ring[i][s.pos] = v
	}
	s.pos = (s.pos + 1) % w
	if s.filled < w {
		s.filled++
	}
	s.pending++
	s.seq++
	if s.filled < w || s.pending < need {
		return RoundReport{}, false, nil
	}
	rep, err = s.round()
	if err != nil {
		// Leave pending/started untouched so the round is retried on the
		// next push instead of being silently dropped.
		return RoundReport{}, false, err
	}
	s.pending = 0
	s.started = true
	// Stamp the actual window end: the number of columns truly consumed.
	// After failed-round retries this runs ahead of the nominal cadence
	// Bounds(round).to, keeping downstream time attribution honest.
	rep.WindowEnd = s.base + int(s.seq)
	return rep, true, nil
}

// processCorr runs one round: the maintained correlations go straight from
// the accumulator's packed triangle to the detector's TSG repair, which
// sweeps it once, deriving each row and offering it for selection, so no
// n×n matrix is built. The first round sums every row exactly from the
// ring. Every later round slides each row by the pending columns, except
// the rows of one stripe, which it sums exactly from the ring instead:
// round r's is stripe r mod RefreshEvery, so every cell is re-summed
// exactly once per RefreshEvery rounds and no round sums the whole
// triangle. The stripe keys off the persisted round counter, so a
// restored streamer re-sums exactly the rows a never-interrupted one
// would — required for bit-identical replay.
func (s *Streamer) processCorr() (RoundReport, error) {
	if err := s.det.initTSG(); err != nil {
		return RoundReport{}, err // the slides stay pending for the retry
	}
	lo, hi := 0, s.det.Sensors()
	if s.started {
		lo, hi = 0, 0
		if k := s.det.round % s.refreshEvery; k+1 < len(s.stripes) {
			lo, hi = s.stripes[k], s.stripes[k+1]
		}
	}
	rep := s.det.processTriangle(s.acc.StripeRows(s.pend, s.ring, s.pos, lo, hi))
	s.pend = s.pend[:0]
	return rep, nil
}

// applyPending applies the pending slides to the sums, as the columns'
// Slide calls would have.
func (s *Streamer) applyPending() {
	s.acc.Apply(s.pend)
	s.pend = s.pend[:0]
}

// chronological rotates the ring in place so that slot 0 holds the oldest
// column and returns its rows: the window in time order, without a copy.
// Only valid once the ring is full, when pos is the oldest slot.
func (s *Streamer) chronological() [][]float64 {
	if p := s.pos; p != 0 {
		for _, r := range s.ring {
			slices.Reverse(r[:p])
			slices.Reverse(r[p:])
			slices.Reverse(r)
		}
		s.pos = 0
	}
	return s.ring
}

// PushSeries pushes every column of t in order and returns the reports of
// all rounds completed along the way.
func (s *Streamer) PushSeries(t *mts.MTS) ([]RoundReport, error) {
	var reps []RoundReport
	col := make([]float64, t.Sensors())
	for p := 0; p < t.Len(); p++ {
		t.Column(p, col)
		rep, ok, err := s.Push(col)
		if err != nil {
			return reps, err
		}
		if ok {
			reps = append(reps, rep)
		}
	}
	return reps, nil
}
