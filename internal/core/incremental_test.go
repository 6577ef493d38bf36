package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"cad/internal/mts"
	"cad/internal/simulator"
	"cad/internal/stats"
	"cad/internal/tsg"
)

func incConfig(refreshEvery int) Config {
	cfg := testConfig()
	cfg.RefreshEvery = refreshEvery
	return cfg
}

// pushAll drives every column of series through sr and returns the reports.
func pushAll(t *testing.T, sr *Streamer, series *mts.MTS) []RoundReport {
	t.Helper()
	reps, err := sr.PushSeries(series)
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// slice is series.Slice for tests.
func slice(t testing.TB, series *mts.MTS, from, to int) *mts.MTS {
	t.Helper()
	s, err := series.Slice(from, to)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// oracleRounds runs the batch oracle (BatchRounds) over series with a
// fresh detector under cfg.
func oracleRounds(t *testing.T, cfg Config, series *mts.MTS) []RoundReport {
	t.Helper()
	det, err := NewDetector(series.Sensors(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := BatchRounds(det, series)
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// sameDecisions requires the streamed reports to make exactly the oracle's
// round decisions — abnormal flag, outlier set, n_r and window end — and
// returns how many rounds the oracle flagged.
func sameDecisions(t *testing.T, label string, got, want []RoundReport) int {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: streamer emitted %d rounds, oracle %d", label, len(got), len(want))
	}
	abnormal := 0
	for i, w := range want {
		g := got[i]
		if g.Abnormal != w.Abnormal || g.Variations != w.Variations || g.WindowEnd != w.WindowEnd ||
			!reflect.DeepEqual(g.Outliers, w.Outliers) {
			t.Errorf("%s round %d: streamer {abnormal %v n_r %d end %d outliers %v}, oracle {abnormal %v n_r %d end %d outliers %v}",
				label, i, g.Abnormal, g.Variations, g.WindowEnd, g.Outliers, w.Abnormal, w.Variations, w.WindowEnd, w.Outliers)
		}
		if w.Abnormal {
			abnormal++
		}
	}
	return abnormal
}

// TestIncrementalMatchesBatchDecisions is the headline equivalence test: on
// a series with a planted correlation break, the streamer must flag exactly
// the same abnormal rounds with exactly the same outlier sets as the batch
// oracle.
func TestIncrementalMatchesBatchDecisions(t *testing.T) {
	series := synth(13, 3, 4, 500, []int{1, 6}, 200, 320)
	det, err := NewDetector(12, incConfig(7)) // refresh often, off-cadence
	if err != nil {
		t.Fatal(err)
	}
	got := pushAll(t, NewStreamer(det), series)
	if sameDecisions(t, "synth", got, oracleRounds(t, testConfig(), series)) == 0 {
		t.Fatal("test has no power: the oracle flagged no abnormal rounds")
	}
}

// TestIncrementalMatchesBatchTinyWindow pins what the streamer keeps at
// windows of 15 columns or fewer, where the equivalence above does not
// hold: SlidingCorr's running-sum correlations and PearsonMatrix's centred
// ones differ in the last bits, and over so few points a near-tie between
// two neighbours can go either way, moving a TSG edge and then a decision.
// What stays is the round cadence: the same number of rounds, ending at the
// same time points.
func TestIncrementalMatchesBatchTinyWindow(t *testing.T) {
	series := synth(19, 3, 4, 400, []int{1, 6}, 200, 260)
	for _, wd := range []mts.Windowing{{W: 8, S: 1}, {W: 15, S: 2}} {
		cfg := testConfig()
		cfg.Window = wd
		det, err := NewDetector(12, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := pushAll(t, NewStreamer(det), series)
		want := oracleRounds(t, cfg, series)
		if len(got) != len(want) {
			t.Fatalf("w=%d: streamer emitted %d rounds, oracle %d", wd.W, len(got), len(want))
		}
		differ := 0
		for i := range want {
			if got[i].WindowEnd != want[i].WindowEnd {
				t.Fatalf("w=%d round %d: streamer window ends at %d, oracle at %d", wd.W, i, got[i].WindowEnd, want[i].WindowEnd)
			}
			if got[i].Abnormal != want[i].Abnormal || !reflect.DeepEqual(got[i].Outliers, want[i].Outliers) {
				differ++
			}
		}
		t.Logf("w=%d: %d of %d rounds decide differently", wd.W, differ, len(want))
	}
}

// TestIncrementalMatchesBatchOnSimulator repeats the decision-equivalence
// check on richer simulator data — several anomaly kinds, cross-coupled
// communities — across a few seeds.
func TestIncrementalMatchesBatchOnSimulator(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		gen, err := simulator.New(simulator.Config{
			Seed: seed, Sensors: 36, Communities: 6, Length: 1500,
		})
		if err != nil {
			t.Fatal(err)
		}
		series, _, _, err := gen.WithAnomalies(simulator.AnomalySpec{Count: 3})
		if err != nil {
			t.Fatal(err)
		}
		cfg := incConfig(16)
		cfg.K = 5
		det, err := NewDetector(36, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := pushAll(t, NewStreamer(det), series)
		sameDecisions(t, "simulator", got, oracleRounds(t, cfg, series))
	}
}

// TestIncrementalCorrelationAccuracy pins the incremental path's numeric
// contract: between exact refreshes the maintained correlations stay within
// 1e-9 of the two-pass PearsonMatrix values on the same window.
func TestIncrementalCorrelationAccuracy(t *testing.T) {
	series := synth(21, 3, 4, 600, nil, -1, -1)
	det, err := NewDetector(12, incConfig(64)) // long stretches without refresh
	if err != nil {
		t.Fatal(err)
	}
	sr := NewStreamer(det)
	real := sr.round
	checked := 0
	check := func() {
		corr := sr.acc.Corr()
		want, err := stats.PearsonMatrix(sr.window().Rows())
		if err != nil {
			t.Fatal(err)
		}
		for i := range corr {
			for j := range corr[i] {
				if d := math.Abs(corr[i][j] - want[i][j]); d > 1e-9 {
					t.Fatalf("corr[%d][%d] drifted %g from exact", i, j, d)
				}
			}
		}
		checked++
	}
	sr.round = func() (RoundReport, error) {
		// A round's sweep slides the sums by the columns pushed since the
		// previous round, so they are checked once it has run. The round
		// before each refresh shows the drift of a full refresh period.
		rep, err := real()
		if len(sr.pend) > 0 {
			t.Fatalf("round left %d slide values pending", len(sr.pend))
		}
		check()
		return rep, err
	}
	pushAll(t, sr, series)
	if checked < 100 {
		t.Fatalf("only %d rounds checked", checked)
	}
}

// rewriteSnapshot decodes a SaveState snapshot, applies edit, and re-encodes
// it — the way to forge snapshots older code wrote. edit sees a version-4
// snapshot's raw sections in the fields versions 2 and 3 kept them in: the
// ring in Ring and the triangle's bytes in AccSXYBits. An edited snapshot
// that is still version 4 is written back as header plus raw sections, the
// triangle bytes verbatim, so edits can truncate or extend them.
func rewriteSnapshot(t testing.TB, snap []byte, edit func(*persistedStreamer)) *bytes.Buffer {
	t.Helper()
	r := bytes.NewReader(snap)
	var st persistedStreamer
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Version == streamerPersistVersion {
		det, err := LoadDetector(bytes.NewReader(st.Detector))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, sectionChunk)
		st.Ring = make([][]float64, det.Sensors())
		for i := range st.Ring {
			st.Ring[i] = make([]float64, det.Config().Window.W)
			if err := readSection(r, buf, st.Ring[i]); err != nil {
				t.Fatal(err)
			}
		}
		if st.HasAcc {
			st.AccSXYBits = snap[len(snap)-r.Len():]
		}
	}
	edit(&st)
	var out bytes.Buffer
	if st.Version != streamerPersistVersion {
		if err := gob.NewEncoder(&out).Encode(&st); err != nil {
			t.Fatal(err)
		}
		return &out
	}
	ring, bits := st.Ring, st.AccSXYBits
	st.Ring, st.AccSXYBits = nil, nil
	if err := writeStreamerSnapshot(&out, &st, ring, nil); err != nil {
		t.Fatal(err)
	}
	out.Write(bits)
	return &out
}

// TestIncrementalFailedRoundRetry checks that a transient round failure on
// the incremental path neither advances the detector nor desynchronizes the
// correlation accumulator from the ring: the accumulator keeps sliding
// through the failed attempt, so every completed round — the retry included —
// sees the exact Pearson correlations of its window. RefreshEvery=2 gives
// the failed attempt a stripe, which its retry re-sums.
func TestIncrementalFailedRoundRetry(t *testing.T) {
	series := synth(41, 3, 4, 120, nil, -1, -1)
	det, err := NewDetector(12, incConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	sr := NewStreamer(det)
	errBoom := errors.New("boom")
	calls := 0
	real := sr.round
	sr.round = func() (RoundReport, error) {
		calls++
		if calls == 3 { // fail the third round attempt (tick 48) once
			return RoundReport{}, errBoom
		}
		rep, err := real()
		corr := sr.acc.Corr()
		want, perr := stats.PearsonMatrix(sr.window().Rows())
		if perr != nil {
			t.Fatal(perr)
		}
		for i := range corr {
			for j := range corr[i] {
				if d := math.Abs(corr[i][j] - want[i][j]); d > 1e-9 {
					t.Fatalf("attempt %d: corr[%d][%d] off exact by %g", calls, i, j, d)
				}
			}
		}
		return rep, err
	}
	var completed []int
	var ends []int
	col := make([]float64, 12)
	for p := 0; p < 80; p++ {
		series.Column(p, col)
		rep, ok, err := sr.Push(col)
		if err != nil {
			if !errors.Is(err, errBoom) {
				t.Fatalf("tick %d: %v", p+1, err)
			}
			continue
		}
		if ok {
			completed = append(completed, p+1)
			ends = append(ends, rep.WindowEnd)
		}
	}
	want := []int{40, 44, 49, 53, 57, 61, 65, 69, 73, 77}
	if !reflect.DeepEqual(completed, want) {
		t.Fatalf("completed ticks = %v, want %v", completed, want)
	}
	if !reflect.DeepEqual(ends, want) {
		t.Fatalf("window ends = %v, want %v", ends, want)
	}
	if det.Rounds() != len(completed) {
		t.Fatalf("detector advanced %d rounds, %d completed", det.Rounds(), len(completed))
	}
}

// TestLoadStreamerRebuildsAccumulator restores snapshots that carry no
// accumulator, only the ring: version 2, written when exact configs could
// still stream by batch recompute, and version 4, written by a stream whose
// config chose the retired HNSW-built TSG. Each is cut once while the first window
// is filling and once with a full ring between rounds. The restored
// streamer must continue with the uninterrupted run's decisions. A filling
// ring has no sums to rebuild, since the first round sums its window; the
// detectors are warmed up so that the round after the full-ring cut is off
// the refresh cadence and a wrong rebuild shows.
func TestLoadStreamerRebuildsAccumulator(t *testing.T) {
	his := synth(32, 3, 4, 200, nil, -1, -1) // 41 warm-up rounds
	series := synth(33, 3, 4, 520, []int{2, 9}, 250, 360)
	warm := func() *Detector {
		det, err := NewDetector(12, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := det.WarmUp(his); err != nil {
			t.Fatal(err)
		}
		return det
	}
	want, err := warm().Detect(series)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ version, cut int }{ // w=40: filling, then full mid-round
		{streamerPersistFullSXY, 17}, {streamerPersistFullSXY, 173},
		{streamerPersistVersion, 17}, {streamerPersistVersion, 173},
	} {
		cut := c.cut
		det := warm()
		base := det.Rounds() * det.Config().Window.S
		sr := NewStreamer(det)
		got := pushAll(t, sr, slice(t, series, 0, cut))
		var snap bytes.Buffer
		if err := sr.SaveState(&snap); err != nil {
			t.Fatal(err)
		}
		old := rewriteSnapshot(t, snap.Bytes(), func(st *persistedStreamer) {
			st.Version = c.version
			st.HasAcc, st.AccRef, st.AccSX, st.AccSXYBits, st.AccCount = false, nil, nil, nil, 0
		})
		restored, err := LoadStreamer(old)
		if err != nil {
			t.Fatalf("version %d cut %d: %v", c.version, cut, err)
		}
		got = append(got, pushAll(t, restored, slice(t, series, cut, series.Len()))...)
		for i := range got {
			got[i].WindowEnd -= base // into Detect's series coordinates
		}
		if sameDecisions(t, fmt.Sprintf("version %d cut %d", c.version, cut), got, want.Rounds) == 0 {
			t.Fatal("test has no power: Detect flagged no abnormal rounds")
		}
	}
}

// TestIncrementalCorrelationAccuracyDrift holds the streamer to
// TestIncrementalCorrelationAccuracy's 1e-9 on a series whose mean drifts
// by more than 10³ standard deviations over the run, so a sensor's shift
// reference, re-anchored only at its stripe, falls hundreds of deviations
// behind the window between two of its exact re-sums. Every round of two
// full cycles is checked.
func TestIncrementalCorrelationAccuracyDrift(t *testing.T) {
	const every = 64
	cfg := incConfig(every)
	length := cfg.Window.W + 2*every*cfg.Window.S
	series := synth(23, 3, 4, length, nil, -1, -1)
	for i := 0; i < series.Sensors(); i++ {
		row := series.Row(i)
		sd := stats.StdDev(row)
		slope := float64(1+i%3) * 1.2e3 * sd / float64(length) // ≥ 1.2·10³σ over the run
		if i%2 == 1 {
			slope = -slope
		}
		for p := range row {
			row[p] += slope * float64(p)
		}
	}
	det, err := NewDetector(series.Sensors(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr := NewStreamer(det)
	real := sr.round
	var worst float64
	rounds := 0
	sr.round = func() (RoundReport, error) {
		rep, err := real()
		corr := sr.acc.Corr()
		want, perr := stats.PearsonMatrix(sr.window().Rows())
		if perr != nil {
			t.Fatal(perr)
		}
		for i := range corr {
			for j := range corr[i] {
				worst = max(worst, math.Abs(corr[i][j]-want[i][j]))
			}
		}
		rounds++
		return rep, err
	}
	pushAll(t, sr, series)
	t.Logf("worst cell error %g over %d rounds", worst, rounds)
	if rounds <= 2*every || worst > 1e-9 {
		t.Fatalf("worst cell error %g over %d rounds, want ≤ 1e-9 over more than %d", worst, rounds, 2*every)
	}
}

// TestStreamerStripeSchedule: right after each round, every row of the
// round's stripe holds, bit for bit, an exact re-sum of the current window
// in its current frame, its sensor's shift reference at the window's
// oldest reading; the stripes of a cycle cover each row exactly once, so
// each row is re-summed once every RefreshEvery rounds; and the first
// round re-sums every row. n=730 is wide enough that the sweep splits
// from GOMAXPROCS 2 on.
func TestStreamerStripeSchedule(t *testing.T) {
	const n = 730
	for _, every := range []int{1, 8, 64} {
		cfg := wideConfig(every)
		cols := wideColumns(t, n, cfg.Window.W+2*every*cfg.Window.S)
		stripes := tsg.SplitRows(nil, n, every)
		covered := make([]int, n)
		for k := 0; k+1 < len(stripes); k++ {
			for i := stripes[k]; i < stripes[k+1]; i++ {
				covered[i]++
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("RefreshEvery %d: row %d is in %d stripes of a cycle, want 1", every, i, c)
			}
		}
		for _, procs := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("every=%d/procs=%d", every, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				det, err := NewDetector(n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sr := NewStreamer(det)
				real := sr.round
				rounds := 0
				sr.round = func() (RoundReport, error) {
					first := !sr.started
					k := det.round % every
					rep, err := real()
					lo, hi := 0, n
					if !first {
						lo, hi = 0, 0
						if k+1 < len(stripes) {
							lo, hi = stripes[k], stripes[k+1]
						}
					}
					checkExactRows(t, sr, lo, hi)
					rounds++
					return rep, err
				}
				for _, col := range cols {
					if _, _, err := sr.Push(col); err != nil {
						t.Fatal(err)
					}
				}
				if rounds != 2*every+1 {
					t.Fatalf("%d rounds, want %d", rounds, 2*every+1)
				}
			})
		}
	}
}

// checkExactRows fails unless rows [lo, hi) of sr's sums are exact re-sums
// of its window, each sensor's deviations from its shift reference summed
// from zero in time order, and those sensors' references are the window's
// oldest readings.
func checkExactRows(t *testing.T, sr *Streamer, lo, hi int) {
	t.Helper()
	win := sr.window()
	ref, sx, sxy, _ := sr.acc.State()
	n := len(ref)
	for i := lo; i < hi; i++ {
		xi := win.Row(i)
		if ref[i] != xi[0] {
			t.Fatalf("round %d: sensor %d ref %v, want the window's oldest reading %v", sr.det.round-1, i, ref[i], xi[0])
		}
		var s float64
		for _, x := range xi {
			s += x - ref[i]
		}
		if math.Float64bits(s) != math.Float64bits(sx[i]) {
			t.Fatalf("round %d: Σd_%d = %v, exact %v", sr.det.round-1, i, sx[i], s)
		}
		off := i*n - i*(i-1)/2
		for j := i; j < n; j++ {
			xj := win.Row(j)
			var e float64
			for u, x := range xi {
				e += (x - ref[i]) * (xj[u] - ref[j])
			}
			if got := sxy[off+j-i]; math.Float64bits(got) != math.Float64bits(e) {
				t.Fatalf("round %d: sxy(%d,%d) = %v, exact %v", sr.det.round-1, i, j, got, e)
			}
		}
	}
}
