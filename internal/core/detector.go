package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"cad/internal/louvain"
	"cad/internal/mts"
	"cad/internal/stats"
	"cad/internal/tsg"
)

// Anomaly is one detected anomaly Z = (V_Z, R_Z) (paper Def. 1) mapped back
// to time points.
type Anomaly struct {
	// Sensors is V_Z: indices of the abnormal sensors, sorted ascending.
	Sensors []int
	// Onsets[i] is the first abnormal round in which Sensors[i] appeared
	// in the outlier set. Sensors with the earliest onset are the best
	// root-cause candidates: a failure typically decorrelates its own
	// sensors first and propagates to neighbors later (§I).
	Onsets []int
	// FirstRound and LastRound delimit R_Z (inclusive, 0-indexed rounds).
	FirstRound, LastRound int
	// Start and End delimit the covered time points [Start, End) in the
	// original series.
	Start, End int
	// Score is the peak normalized deviation max_r |n_r − μ| / σ over R_Z.
	Score float64
}

// RootCauses returns the sensors ordered by onset (earliest first, ties by
// sensor id) — the ranking a maintenance crew should inspect in.
func (a Anomaly) RootCauses() []int {
	idx := make([]int, len(a.Sensors))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		if a.Onsets[idx[x]] != a.Onsets[idx[y]] {
			return a.Onsets[idx[x]] < a.Onsets[idx[y]]
		}
		return a.Sensors[idx[x]] < a.Sensors[idx[y]]
	})
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = a.Sensors[j]
	}
	return out
}

// RoundReport describes the outcome of processing one round.
type RoundReport struct {
	// Round is the 0-indexed round number within the processed series.
	Round int
	// Outliers is O_r, sorted ascending.
	Outliers []int
	// Variations is n_r, the number of outlier transitions (Def. 8).
	Variations int
	// Score is |n_r − μ| / max(σ, SigmaFloor) against the history *before*
	// this round was appended. 0 while history is shorter than MinHistory.
	Score float64
	// Abnormal reports whether the round was flagged.
	Abnormal bool
	// Communities is the number of Louvain communities found.
	Communities int
	// WindowEnd is the 1-based index just past the last time point of this
	// round's window. In a Detect result it is relative to the series and
	// equals Window.Bounds(Round).to; from a Streamer it counts the columns
	// actually consumed, offset by the detector's warm-up, and can run ahead
	// of the nominal round cadence when a transient round failure forced a
	// retry with the window slid further. Zero in reports predating this
	// field.
	WindowEnd int
}

// Result is the output of Detector.Detect.
type Result struct {
	// Anomalies in chronological order.
	Anomalies []Anomaly
	// Rounds holds one report per processed round.
	Rounds []RoundReport
	// PointScores maps the per-round scores onto time points: point t gets
	// the score of the first round whose window fully covers t (0 before
	// any round completes).
	PointScores []float64
	// PointLabels is the binary per-time-point prediction: each abnormal
	// round marks the final step of its window (see Detector.Detect).
	PointLabels []bool
}

// Detector runs CAD. It is stateful: the co-appearance history, outlier set,
// and n_r statistics persist across calls, which is what lets WarmUp prime
// a later Detect or Streamer. A Detector is not safe for concurrent use.
type Detector struct {
	cfg     Config
	n       int
	builder tsg.Builder

	// incTSG maintains the TSG across rounds. Lazily created; never
	// persisted — its graph is a pure function of the correlation matrix,
	// so the first repair after a restore rebuilds it exactly. What that
	// repair cannot know is whether the edge set changed since the saved
	// round: prevOff and prevNbr hold the saved round's adjacency until
	// then.
	incTSG           *tsg.Incremental
	prevOff, prevNbr []int
	// lw is the Louvain scratch every round of this detector reuses.
	lw louvain.Workspace

	round    int // rounds processed so far (warm-up included)
	havePrev bool
	prevPart louvain.Partition

	sumS     []float64   // Σ S_i(v) over the active horizon, or EWMA state
	ring     [][]float64 // per-vertex trailing S values (RCSliding only)
	ringPos  int
	rcRounds int    // co-appearance rounds accumulated
	outlier  []bool // O_{r-1}
	// advance's scratch, sized once: co[v] receives S_r(v); byPrev and
	// start group the vertices by previous community; count tallies one
	// group's current communities and is all-zero between uses.
	co, byPrev, start, count []int
	outNow                   []bool

	hist history // μ, σ estimator over n_r (unbounded or trailing horizon)

	obs RoundObserver // optional per-round telemetry sink
}

// history estimates μ and σ of the n_r series, either over the entire past
// (the paper's Algorithm 2) or over a trailing horizon of samples
// (Config.HistoryHorizon > 0), which lets the 3σ threshold adapt when the
// plant's noise regime drifts.
type history struct {
	run    stats.Running
	ring   []float64 // nil when unbounded
	pos    int
	filled int
}

func newHistory(horizon int) history {
	if horizon <= 0 {
		return history{}
	}
	return history{ring: make([]float64, horizon)}
}

func (h *history) Add(x float64) {
	if h.ring == nil {
		h.run.Add(x)
		return
	}
	h.ring[h.pos] = x
	h.pos = (h.pos + 1) % len(h.ring)
	if h.filled < len(h.ring) {
		h.filled++
	}
}

func (h *history) N() int {
	if h.ring == nil {
		return h.run.N()
	}
	return h.filled
}

func (h *history) Mean() float64 {
	if h.ring == nil {
		return h.run.Mean()
	}
	return stats.Mean(h.ring[:h.filled])
}

func (h *history) StdDev() float64 {
	if h.ring == nil {
		return h.run.StdDev()
	}
	return stats.StdDev(h.ring[:h.filled])
}

// NewDetector validates cfg for n sensors and returns a fresh detector.
func NewDetector(n int, cfg Config) (*Detector, error) {
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	if cfg.RCHorizon == 0 {
		cfg.RCHorizon = 10
	}
	d := &Detector{
		cfg:     cfg,
		n:       n,
		builder: tsg.Builder{K: cfg.K, Tau: cfg.Tau},
		sumS:    make([]float64, n),
		outlier: make([]bool, n),
		co:      make([]int, n),
		byPrev:  make([]int, n),
		start:   make([]int, n+2),
		count:   make([]int, n),
		outNow:  make([]bool, n),
		hist:    newHistory(cfg.HistoryHorizon),
	}
	if cfg.RCMode == RCSliding {
		d.ring = make([][]float64, n)
		backing := make([]float64, n*cfg.RCHorizon)
		for v := range d.ring {
			d.ring[v] = backing[v*cfg.RCHorizon : (v+1)*cfg.RCHorizon]
		}
	}
	return d, nil
}

// Config returns the detector's configuration.
func (d *Detector) Config() Config { return d.cfg }

// Sensors returns the number of sensors the detector was built for.
func (d *Detector) Sensors() int { return d.n }

// Rounds returns the number of rounds processed so far, warm-up included.
func (d *Detector) Rounds() int { return d.round }

// HistoryMean returns the running mean μ of n_r.
func (d *Detector) HistoryMean() float64 { return d.hist.Mean() }

// HistoryStdDev returns the running standard deviation σ of n_r.
func (d *Detector) HistoryStdDev() float64 { return d.hist.StdDev() }

// WarmUp processes the historical series T_his exactly as Algorithm 2's
// WarmUp function: every round is mined for outliers and its n_r feeds the
// μ/σ history, but no anomalies are reported. The rounds run through a
// Streamer, the same pipeline as Detect and live ingestion, and the
// co-appearance state carries over into later Detect calls and streams.
func (d *Detector) WarmUp(his *mts.MTS) error {
	_, err := d.stream(his, "warm-up")
	return err
}

// Detect runs Algorithm 2 over T and returns all detected anomalies. It
// pushes T through a Streamer one column at a time (§IV-F
// "Generalization": each new round repeats lines 6–11) and assembles the
// reports with a Tracker; Round and WindowEnd in the result are relative to
// T. The detector's state advances; to analyze an unrelated series build a
// new Detector.
func (d *Detector) Detect(t *mts.MTS) (*Result, error) {
	reps, err := d.stream(t, "series")
	if err != nil {
		return nil, err
	}
	wd := d.cfg.Window
	res := &Result{
		Rounds:      reps,
		PointScores: make([]float64, t.Len()),
		PointLabels: make([]bool, t.Len()),
	}
	tr := NewTracker(d.cfg)
	for r := range reps {
		rep := &reps[r]
		rep.Round = r
		_, rep.WindowEnd = wd.Bounds(r)
		tr.Push(*rep)
		if rep.Abnormal {
			// An abnormal round implicates the final step of its window,
			// so consecutive abnormal rounds mark contiguous time and an
			// anomaly's first marked point is the moment it became visible
			// at the window's edge — which is what makes the alarm early
			// under DPA. Tracker spans anomalies the same way.
			for p := max(rep.WindowEnd-wd.S, 0); p < rep.WindowEnd; p++ {
				res.PointLabels[p] = true
			}
		}
	}
	tr.Flush()
	res.Anomalies = tr.Drain()
	// Point scores: point t takes the score of the first round covering it.
	for p := range res.PointScores {
		res.PointScores[p] = reps[min(max(wd.RoundOf(p), 0), len(reps)-1)].Score
	}
	return res, nil
}

// stream validates t and pushes it through a fresh Streamer over d,
// returning the reports of every round. The whole series is checked before
// the first push, so a rejected series leaves the detector untouched.
func (d *Detector) stream(t *mts.MTS, what string) ([]RoundReport, error) {
	if t.Sensors() != d.n {
		return nil, fmt.Errorf("%w: %s has %d sensors, detector expects %d", ErrBadConfig, what, t.Sensors(), d.n)
	}
	if d.cfg.Window.Rounds(t.Len()) == 0 {
		return nil, fmt.Errorf("%w: %s length %d too short for window w=%d", ErrBadConfig, what, t.Len(), d.cfg.Window.W)
	}
	for i, row := range t.Rows() {
		if p := slices.IndexFunc(row, nonFinite); p >= 0 {
			return nil, fmt.Errorf("%w: sensor %d at time point %d of the %s", ErrBadReading, i, p, what)
		}
	}
	sr := NewStreamer(d)
	defer sr.Release()
	reps, err := sr.PushSeries(t)
	if err != nil {
		return nil, fmt.Errorf("cad: %s: %w", what, err)
	}
	return reps, nil
}

// ProcessCorr advances the detector by one round from a precomputed
// correlation matrix, which must be n×n and symmetric. It runs the same
// round as the Streamer: the TSG is repaired in place rather
// than rebuilt, and community detection warm-starts from the previous
// round's partition. dirty is ignored; it remains so existing callers keep
// compiling.
func (d *Detector) ProcessCorr(corr [][]float64, dirty []bool) (RoundReport, error) {
	if len(corr) != d.n {
		return RoundReport{}, fmt.Errorf("%w: correlation matrix has %d rows, detector expects %d", ErrBadConfig, len(corr), d.n)
	}
	for i, row := range corr {
		if len(row) != d.n {
			return RoundReport{}, fmt.Errorf("%w: correlation matrix row %d has %d entries, detector expects %d", ErrBadConfig, i, len(row), d.n)
		}
	}
	if err := d.initTSG(); err != nil {
		return RoundReport{}, err
	}
	return d.processTriangle(tsg.Dense(corr)), nil
}

// initTSG creates the TSG maintainer on the detector's first round. It is
// the only step of a round that can fail, so a round calls it before it
// changes anything: processTriangle then cannot fail.
func (d *Detector) initTSG() (err error) {
	if d.incTSG == nil {
		d.incTSG, err = tsg.NewIncremental(d.builder, d.n)
	}
	return err
}

// processTriangle is the exact streaming round, after initTSG, with each
// stage timed: the correlations corr reads go straight to the TSG repair,
// then warm-started Louvain and the co-appearance advance.
func (d *Detector) processTriangle(corr tsg.Triangle) RoundReport {
	var st StageTimings
	start := time.Now()
	structural := d.incTSG.Repair(corr)
	if d.prevOff != nil {
		// First round after a restore: the fresh graph counted every edge
		// as inserted. Diff it against the saved round's instead.
		off, nbr, _ := d.incTSG.Graph().CSR()
		structural = 0
		if !slices.Equal(off, d.prevOff) || !slices.Equal(nbr, d.prevNbr) {
			structural = 1
		}
		d.prevOff, d.prevNbr = nil, nil
	}
	st.TSGBuild = time.Since(start)
	start = time.Now()
	var part louvain.Partition
	if d.havePrev && structural == 0 && !d.anyOutlier() {
		// The edge set is unchanged since the previous round (weights may
		// have wiggled), so the previous partition is a strong seed:
		// CommunitiesSeeded verifies it is still a local optimum in one
		// cheap pass and reruns cold the moment anything moves. Rounds
		// that churn edges — anomalies — always take the cold path, which
		// keeps decisions aligned with a cold rebuild. The outlier-set
		// guard covers the remaining hazard: while an anomaly is in flight
		// the weights swing hard enough that the seed and a cold start can
		// be *different* vertex-stable local optima even on an identical
		// edge set (a regime tear holds the k-NN sets still for a round
		// while the boundary weights keep moving), so any round entered
		// with a non-empty outlier set runs cold too.
		part = d.lw.CommunitiesSeeded(d.incTSG.Graph(), d.prevPart)
		st.Warm = true
	} else {
		part = d.lw.Communities(d.incTSG.Graph())
	}
	st.Louvain = time.Since(start)
	rep := d.observedAdvance(part, st)
	rep.Round = d.round - 1
	_, rep.WindowEnd = d.cfg.Window.Bounds(rep.Round)
	return rep
}

// anyOutlier reports whether the previous round left a non-empty outlier
// set O_{r−1} — the incremental path's signal that an anomaly is in flight
// and community detection must run cold.
func (d *Detector) anyOutlier() bool {
	for _, o := range d.outlier {
		if o {
			return true
		}
	}
	return false
}

// observedAdvance runs advance and reports the round to the attached
// observer, completing the stage timings with the advance duration.
func (d *Detector) observedAdvance(part louvain.Partition, st StageTimings) RoundReport {
	start := time.Now()
	rep := d.advance(part)
	if d.obs != nil {
		st.Advance = time.Since(start)
		d.obs.ObserveRound(rep, st, d.hist.Mean(), d.hist.StdDev())
	}
	return rep
}

// advance runs the stateful half of Algorithm 1 — co-appearance mining,
// outlier-set maintenance, and the abnormal-round rule — on an
// already-computed partition.
func (d *Detector) advance(part louvain.Partition) RoundReport {
	// Round carries the global counter (warm-up included); Detect
	// overwrites it with the series-relative index.
	rep := RoundReport{Round: d.round, Communities: part.Count}

	// Phase 2: co-appearance mining (Defs. 4–6). S_r(v) counts the other
	// vertices sharing v's community in both round r−1 and round r. With
	// communities as sets, S_r(v) = |C_{r−1}(v) ∩ C_r(v)| − 1, computable
	// for all v in O(n) by bucketing on the (previous, current) pair.
	nOut := 0
	if d.havePrev {
		co := d.coAppearance(part)
		outNow := d.outNow
		for v := 0; v < d.n; v++ {
			s := float64(co[v])
			switch d.cfg.RCMode {
			case RCExponential:
				if d.rcRounds == 0 {
					d.sumS[v] = s
				} else {
					d.sumS[v] = (1-d.cfg.RCAlpha)*d.sumS[v] + d.cfg.RCAlpha*s
				}
			case RCSliding:
				d.sumS[v] += s - d.ring[v][d.ringPos]
				d.ring[v][d.ringPos] = s
			default: // RCCumulative
				d.sumS[v] += s
			}
		}
		if d.cfg.RCMode == RCSliding {
			d.ringPos = (d.ringPos + 1) % d.cfg.RCHorizon
		}
		d.rcRounds++
		for v := 0; v < d.n; v++ {
			rc := d.rc(v)
			outNow[v] = rc < d.cfg.Theta
			if outNow[v] {
				rep.Outliers = append(rep.Outliers, v)
			}
			if outNow[v] != d.outlier[v] {
				nOut++
			}
		}
		copy(d.outlier, outNow)
	}
	rep.Variations = nOut

	// Phase 3 + §IV-E: abnormal-round decision against history so far.
	mu, sigma := d.hist.Mean(), d.hist.StdDev()
	enough := d.hist.N() >= d.cfg.MinHistory && d.round > 0
	if enough {
		if d.cfg.DisableVariationRule {
			rep.Abnormal = len(rep.Outliers) >= d.cfg.FixedXi
			rep.Score = float64(len(rep.Outliers))
		} else {
			dev := float64(nOut) - mu
			if dev < 0 {
				dev = -dev
			}
			s := sigma
			if s < d.cfg.SigmaFloor {
				s = d.cfg.SigmaFloor
			}
			if s > 0 {
				rep.Score = dev / s
			} else if dev > 0 {
				rep.Score = dev * 1e9 // σ = 0 and no floor: any deviation alarms
			}
			rep.Abnormal = rep.Score >= d.cfg.Eta
		}
	}
	d.hist.Add(float64(nOut))

	d.prevPart = part
	d.havePrev = true
	d.round++
	return rep
}

// coAppearance returns S_r(v) = |C_{r−1}(v) ∩ C_r(v)| − 1 for every v, in
// scratch valid until the next call. It groups the vertices by previous
// community and counts each group's current communities, so it runs in
// O(n) on dense slices sized once for at most n communities.
func (d *Detector) coAppearance(part louvain.Partition) []int {
	prev := d.prevPart
	// Counts land in start[p+2]; the prefix sum turns start[p+1] into p's
	// first slot of byPrev, and filling advances it to p's end.
	start := d.start[:prev.Count+2]
	clear(start)
	for _, p := range prev.Of {
		start[p+2]++
	}
	for p := 2; p < len(start); p++ {
		start[p] += start[p-1]
	}
	byPrev := d.byPrev
	for v, p := range prev.Of {
		byPrev[start[p+1]] = v
		start[p+1]++
	}
	count, co := d.count, d.co
	for p := 0; p < prev.Count; p++ {
		group := byPrev[start[p]:start[p+1]]
		for _, v := range group {
			count[part.Of[v]]++
		}
		for _, v := range group {
			co[v] = count[part.Of[v]] - 1
		}
		for _, v := range group {
			count[part.Of[v]] = 0
		}
	}
	return co
}

// rc returns RC_{v,r} for the current accumulation state.
func (d *Detector) rc(v int) float64 {
	if d.rcRounds == 0 {
		return 1
	}
	switch d.cfg.RCMode {
	case RCExponential:
		return d.sumS[v] / float64(d.n-1)
	case RCSliding:
		h := d.rcRounds
		if h > d.cfg.RCHorizon {
			h = d.cfg.RCHorizon
		}
		return d.sumS[v] / (float64(h) * float64(d.n-1))
	default: // RCCumulative
		return d.sumS[v] / (float64(d.rcRounds) * float64(d.n-1))
	}
}

// RC exposes the current ratio of co-appearance number of sensor v, mainly
// for tests and diagnostics.
func (d *Detector) RC(v int) float64 { return d.rc(v) }
