package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"cad/internal/mts"
	"cad/internal/offheap"
	"cad/internal/simulator"
	"cad/internal/stats"
)

// TestStreamerPushRecoversFromFailedRound is the regression test for the
// streaming-state corruption bug: Push used to commit pending=0/started=true
// *before* the round ran, so a failed round was silently dropped and the
// next round fired after only s columns. With the fix the failed round is
// retried on the very next push, the cadence stays intact, and the retried
// round's WindowEnd reflects the extra column the window slid past.
func TestStreamerPushRecoversFromFailedRound(t *testing.T) {
	series := synth(11, 3, 4, 400, nil, -1, -1)
	det, err := NewDetector(12, testConfig()) // w=40, s=4
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
		return real()
	}

	var completed []int // 1-based tick of each completed round
	var ends []int
	var failedAt []int
	col := make([]float64, 12)
	for p := 0; p < 80; p++ {
		series.Column(p, col)
		rep, ok, err := sr.Push(col)
		if err != nil {
			if !errors.Is(err, errBoom) {
				t.Fatalf("tick %d: unexpected error %v", p+1, err)
			}
			failedAt = append(failedAt, p+1)
			continue
		}
		if ok {
			completed = append(completed, p+1)
			ends = append(ends, rep.WindowEnd)
		}
	}

	if want := []int{48}; !reflect.DeepEqual(failedAt, want) {
		t.Fatalf("failed ticks = %v, want %v", failedAt, want)
	}
	// First round at tick 40, then every 4 ticks; the failed tick-48 round
	// is retried (and succeeds) at tick 49, re-anchoring the cadence there.
	want := []int{40, 44, 49, 53, 57, 61, 65, 69, 73, 77}
	if !reflect.DeepEqual(completed, want) {
		t.Fatalf("completed ticks = %v, want %v", completed, want)
	}
	// WindowEnd equals the tick the round actually completed at — it slides
	// with the retry instead of sticking to the nominal cadence.
	if !reflect.DeepEqual(ends, want) {
		t.Fatalf("window ends = %v, want %v", ends, want)
	}
	// The failed attempt must not have advanced the detector.
	if det.Rounds() != len(completed) {
		t.Fatalf("detector advanced %d rounds, %d completed", det.Rounds(), len(completed))
	}
}

// TestStreamerFailedFirstRoundKeepsWarming checks the started flag is not
// committed when the very first round fails: the streamer must keep
// retrying full-window rounds, not switch to the s-column cadence.
func TestStreamerFailedFirstRoundKeepsWarming(t *testing.T) {
	series := synth(12, 3, 4, 100, nil, -1, -1)
	det, err := NewDetector(12, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sr := NewStreamer(det)
	errBoom := errors.New("boom")
	calls := 0
	real := sr.round
	sr.round = func() (RoundReport, error) {
		calls++
		if calls <= 2 { // first round fails twice (ticks 40 and 41)
			return RoundReport{}, errBoom
		}
		return real()
	}
	var completed []int
	col := make([]float64, 12)
	for p := 0; p < 50; p++ {
		series.Column(p, col)
		_, ok, err := sr.Push(col)
		if ok {
			completed = append(completed, p+1)
		}
		if err != nil && !errors.Is(err, errBoom) {
			t.Fatalf("tick %d: %v", p+1, err)
		}
	}
	want := []int{42, 46, 50}
	if !reflect.DeepEqual(completed, want) {
		t.Fatalf("completed ticks = %v, want %v", completed, want)
	}
}

// TestStreamerRingMatchesBatchExactly pins the streamer to the batch
// oracle bit for bit: every field of every report must match, the n_r
// score included.
func TestStreamerRingMatchesBatchExactly(t *testing.T) {
	series := synth(13, 3, 4, 500, []int{1, 6}, 200, 320)
	want := oracleRounds(t, testConfig(), series)
	det, err := NewDetector(12, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := pushAll(t, NewStreamer(det), series)
	if len(got) != len(want) {
		t.Fatalf("streamer emitted %d rounds, oracle %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("round %d differs:\nstream %+v\noracle %+v", i, got[i], want[i])
		}
	}
}

// TestStreamerInvalidPushLeavesStateIntact feeds interleaved invalid
// columns (wrong arity) and checks the stream still matches Detect
// on the clean series — rejected pushes must not consume buffer space or
// cadence.
func TestStreamerInvalidPushLeavesStateIntact(t *testing.T) {
	series := synth(14, 3, 4, 300, nil, -1, -1)

	batch, err := NewDetector(12, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	batchRes, err := batch.Detect(series)
	if err != nil {
		t.Fatal(err)
	}

	stream, err := NewDetector(12, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sr := NewStreamer(stream)
	var reps []RoundReport
	col := make([]float64, 12)
	for p := 0; p < series.Len(); p++ {
		if p%7 == 3 {
			if _, _, err := sr.Push([]float64{1, 2, 3}); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("tick %d: short column: want ErrBadConfig, got %v", p, err)
			}
		}
		series.Column(p, col)
		rep, ok, err := sr.Push(col)
		if err != nil {
			t.Fatalf("tick %d: %v", p, err)
		}
		if ok {
			reps = append(reps, rep)
		}
	}
	if len(reps) != len(batchRes.Rounds) {
		t.Fatalf("streamer emitted %d rounds, batch %d", len(reps), len(batchRes.Rounds))
	}
	for i := range reps {
		if !reflect.DeepEqual(reps[i], batchRes.Rounds[i]) {
			t.Errorf("round %d differs:\nstream %+v\nbatch  %+v", i, reps[i], batchRes.Rounds[i])
		}
	}
}

// TestStreamerRetryKeepsTimeAttribution is the regression test for the
// time-attribution drift after failed-round retries: each retry slides the window
// one extra column, so an anomaly's time span must follow the actual
// consumed columns (RoundReport.WindowEnd), not the nominal cadence
// Bounds(round). Before the fix the Tracker attributed anomalies to ticks
// that drifted one column earlier per preceding failure.
func TestStreamerRetryKeepsTimeAttribution(t *testing.T) {
	series := synth(16, 3, 4, 500, []int{1, 6}, 200, 320)
	cfg := testConfig() // w=40, s=4

	// Reference run, no failures.
	refDet, err := NewDetector(12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refReps, err := NewStreamer(refDet).PushSeries(series)
	if err != nil {
		t.Fatal(err)
	}
	refTr := NewTracker(cfg)
	for _, rep := range refReps {
		refTr.Push(rep)
	}
	refTr.Flush()
	refAnoms := refTr.Drain()
	if len(refAnoms) == 0 {
		t.Fatal("test has no power: reference run found no anomalies")
	}

	// Faulty run: rounds 3, 4, and 10 each fail twice before succeeding,
	// so by the anomaly region the stream runs 6 columns ahead of the
	// nominal cadence.
	det, err := NewDetector(12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr := NewStreamer(det)
	errBoom := errors.New("boom")
	fails := map[int]int{3: 2, 4: 2, 10: 2}
	attempt := 0
	real := sr.round
	sr.round = func() (RoundReport, error) {
		rounds := det.Rounds()
		if fails[rounds] > 0 {
			fails[rounds]--
			attempt++
			return RoundReport{}, errBoom
		}
		return real()
	}
	tr := NewTracker(cfg)
	col := make([]float64, 12)
	var reps []RoundReport
	for p := 0; p < series.Len(); p++ {
		series.Column(p, col)
		rep, ok, err := sr.Push(col)
		if err != nil {
			if !errors.Is(err, errBoom) {
				t.Fatalf("tick %d: %v", p+1, err)
			}
			continue
		}
		if ok {
			reps = append(reps, rep)
			tr.Push(rep)
		}
	}
	tr.Flush()
	anoms := tr.Drain()
	if attempt != 6 {
		t.Fatalf("injected %d failures, want 6", attempt)
	}
	if len(anoms) == 0 {
		t.Fatal("faulty run found no anomalies")
	}

	// Every report's WindowEnd must be the actual 1-based tick the round
	// completed at, so the sequence is strictly increasing and the whole
	// run sits 6 ticks past the nominal Bounds cadence.
	for i, rep := range reps {
		if rep.WindowEnd <= 0 {
			t.Fatalf("report %d has no WindowEnd", i)
		}
		if i > 0 && rep.WindowEnd <= reps[i-1].WindowEnd {
			t.Fatalf("WindowEnd not increasing at report %d: %d then %d",
				i, reps[i-1].WindowEnd, rep.WindowEnd)
		}
		if _, nominal := cfg.Window.Bounds(rep.Round); rep.Round > 10 && rep.WindowEnd != nominal+6 {
			t.Fatalf("report %d (round %d): WindowEnd %d, nominal end %d — expected 6-tick retry drift",
				i, rep.Round, rep.WindowEnd, nominal)
		}
	}

	// Time attribution must follow the actual window ends. Re-derive the
	// expected spans straight from the report stream: consecutive abnormal
	// reports form one anomaly spanning (firstEnd − step, lastEnd]. Under
	// the old Bounds-based attribution every span after the retries would
	// land 6 ticks early.
	type span struct{ start, end int }
	var wantSpans []span
	openStart := -1
	lastEnd := 0
	for _, rep := range reps {
		if rep.Abnormal {
			if openStart < 0 {
				openStart = rep.WindowEnd - cfg.Window.S
				if openStart < 0 {
					openStart = 0
				}
			}
			lastEnd = rep.WindowEnd
			continue
		}
		if openStart >= 0 {
			wantSpans = append(wantSpans, span{openStart, lastEnd})
			openStart = -1
		}
	}
	if openStart >= 0 {
		wantSpans = append(wantSpans, span{openStart, lastEnd})
	}
	if len(anoms) != len(wantSpans) {
		t.Fatalf("tracker produced %d anomalies, report stream implies %d", len(anoms), len(wantSpans))
	}
	for i, a := range anoms {
		if a.Start != wantSpans[i].start || a.End != wantSpans[i].end {
			t.Errorf("anomaly %d span [%d, %d], want [%d, %d] from actual window ends",
				i, a.Start, a.End, wantSpans[i].start, wantSpans[i].end)
		}
		if a.End > series.Len() {
			t.Errorf("anomaly %d End %d beyond consumed columns %d", i, a.End, series.Len())
		}
	}
}

// TestStreamerMemoryGuard bounds everything an exact n=1000 stream allocates
// from construction through its first two rounds, on the Go heap and off
// it: the packed pair sums (n(n+1)/2 floats, 4.0 MB) and the ring, which
// are mapped off the heap and counted from offheap.Bytes, the TSG and two
// cold Louvain runs, about 5.0 MB in all, plus about 90 kB of candidate
// sets per helper goroutine of the round's sweep (two at n=1000 with eight
// processors). Any n×n float64 matrix on this path would add another
// 8 MB. The bound holds at GOMAXPROCS 1, 2 and 8, since the sweep's split
// follows it.
func TestStreamerMemoryGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 1000-sensor stream")
	}
	const n, limit = 1000, 6_000_000
	cfg := testConfig()
	series := synth(17, 40, 25, cfg.Window.W+cfg.Window.S, nil, -1, -1)
	cols := make([][]float64, series.Len())
	for p := range cols {
		cols[p] = series.Column(p, nil)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	offheap.Settle() // so no earlier test's block is unmapped while it counts
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		det, err := NewDetector(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mapped := offheap.Bytes()
		sr := NewStreamer(det)
		rounds := 0
		for _, col := range cols {
			_, ok, err := sr.Push(col)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				rounds++
			}
		}
		runtime.ReadMemStats(&after)
		mapped = offheap.Bytes() - mapped
		sr.Release()
		if rounds != 2 {
			t.Fatalf("%d rounds completed, want 2", rounds)
		}
		if got := after.TotalAlloc - before.TotalAlloc + uint64(mapped); got >= limit {
			t.Fatalf("GOMAXPROCS %d: streamer allocated %.2f MB over two rounds, want < %.0f MB", procs, float64(got)/1e6, float64(limit)/1e6)
		}
	}
}

// TestStreamerWideRoundAllocs is TestStreamerRoundAllocs at n=1000, where
// the round's sweep splits across up to three goroutines: at GOMAXPROCS 1,
// 2 and 8 a steady round allocates at most 4 times, since a helper's
// goroutine and candidate sets cost the heap nothing once they exist. A
// stream that sums every row exactly every round (RefreshEvery = 1)
// allocates no more, since the exact sums read the window ring in place.
// θ sits below the co-appearance plateau of
// the 25-sensor communities, as in the benchmark's wide workload, so
// healthy sensors are not outliers.
func TestStreamerWideRoundAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 1000-sensor stream")
	}
	const n, rounds = 1000, 5
	cfg := testConfig()
	cfg.Theta = 0.018
	step := cfg.Window.S
	series := synth(17, 40, 25, cfg.Window.W+(2*rounds+4)*step, nil, -1, -1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		var slide float64
		for _, every := range []int{0, 1} {
			cfg.RefreshEvery = every
			det, err := NewDetector(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sr := NewStreamer(det)
			col := make([]float64, n)
			p := 0
			round := func() {
				for i := 0; i < step || p < cfg.Window.W; i++ {
					series.Column(p, col)
					p++
					if _, _, err := sr.Push(col); err != nil {
						t.Fatal(err)
					}
				}
			}
			for range rounds + 2 { // let every reused buffer reach its size
				round()
			}
			allocs := testing.AllocsPerRun(rounds, round)
			if every == 0 {
				if allocs > 4 {
					t.Fatalf("GOMAXPROCS %d: steady-state round allocates %v times, want ≤ 4", procs, allocs)
				}
				slide = allocs
			} else if allocs > slide {
				t.Fatalf("GOMAXPROCS %d: an all-exact round allocates %v times, a steady round %v; want ≤ %v", procs, allocs, slide, slide)
			}
		}
	}
}

// TestStreamerRoundAllocs pins what a steady-state exact round costs the
// heap at n=200: the TSG repair and Louvain run on reused buffers, and the
// co-appearance advance on dense scratch, so what is left is the round's
// Partition and report.
func TestStreamerRoundAllocs(t *testing.T) {
	const n, rounds = 200, 20
	cfg := testConfig()
	cfg.K = 10
	cfg.Theta = 0.05 // groups of 25: normal RC ≈ 24/199
	det, err := NewDetector(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := cfg.Window.S
	series := synth(31, 8, 25, cfg.Window.W+(2*rounds+2)*step, nil, -1, -1)
	sr := NewStreamer(det)
	col := make([]float64, n)
	p := 0
	round := func() {
		for i := 0; i < step || p < cfg.Window.W; i++ {
			series.Column(p, col)
			p++
			if _, _, err := sr.Push(col); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < rounds; i++ { // let every reused buffer reach its size
		round()
	}
	if allocs := testing.AllocsPerRun(rounds, round); allocs > 4 {
		t.Fatalf("steady-state round allocates %v times, want ≤ 4", allocs)
	}
}

// BenchmarkStreamerPush measures the full streaming hot path: ring write,
// rank-one correlation slide, and round processing.
func BenchmarkStreamerPush(b *testing.B) {
	for _, n := range []int{12, 48} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := testConfig()
			cfg.Window = mts.Windowing{W: 200, S: 4}
			cfg.K = 3
			det, err := NewDetector(n, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sr := NewStreamer(det)
			series := synth(15, n/4, 4, 1200, nil, -1, -1)
			cols := make([][]float64, series.Len())
			for p := range cols {
				cols[p] = series.Column(p, nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sr.Push(cols[i%len(cols)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamerPushBuffer isolates the per-push work — the O(n) ring
// write plus the O(n²) correlation slide — by stubbing out round
// processing.
func BenchmarkStreamerPushBuffer(b *testing.B) {
	cfg := testConfig()
	cfg.Window = mts.Windowing{W: 400, S: 8}
	det, err := NewDetector(48, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sr := NewStreamer(det)
	sr.round = func() (RoundReport, error) { return RoundReport{}, nil }
	col := make([]float64, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sr.Push(col); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamerRound times steady rounds of an n=1000, w=64, S=4
// stream set up like the benchmark's wide workload (40 simulated
// communities, k=10, τ=0.4, θ below the co-appearance plateau): each
// round's four pushes, then the sweep that slides, re-sums, derives and
// selects the triangle's rows, Louvain and the advance. The slide case
// keeps exact sums out (RefreshEvery = 2^30, a stripe of at most one row);
// the refresh case sums every row exactly every round (RefreshEvery = 1);
// the cycle case runs 64 rounds per op at the default RefreshEvery of 64,
// one full cycle of stripes, and also reports its slowest round against
// the median. All report the mean round (round-ms) and the rounds' mean
// TSGBuild stage. Run it with -cpu 1,2 to see the sweep's split.
func BenchmarkStreamerRound(b *testing.B) {
	const n, w, step = 1000, 64, 4
	// Two cycles' columns after the warm-up, so the rounds of one or two
	// cycle ops never wrap round to the series' start.
	gen, err := simulator.New(simulator.Config{Seed: 19, Sensors: n, Communities: 40, Length: w + (4+2*64)*step})
	if err != nil {
		b.Fatal(err)
	}
	series := gen.Clean()
	cols := make([][]float64, series.Len())
	for p := range cols {
		cols[p] = series.Column(p, nil)
	}
	for _, bc := range []struct {
		name          string
		every, rounds int
	}{{"slide", 1 << 30, 1}, {"refresh", 1, 1}, {"cycle", 64, 64}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := testConfig()
			cfg.Window = mts.Windowing{W: w, S: step}
			cfg.K, cfg.Tau, cfg.Theta = 10, 0.4, 0.018
			cfg.RefreshEvery = bc.every
			det, err := NewDetector(n, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sr := NewStreamer(det)
			p := 0
			push := func() {
				if _, _, err := sr.Push(cols[p%len(cols)]); err != nil {
					b.Fatal(err)
				}
				p++
			}
			for p < w+4*step { // the first round and a few steady ones
				push()
			}
			var st stageSum
			det.SetObserver(&st)
			var times []time.Duration
			b.ReportAllocs()
			for b.Loop() {
				for range bc.rounds {
					start := time.Now()
					for range step {
						push()
					}
					times = append(times, time.Since(start))
				}
			}
			if len(times) == 0 {
				return
			}
			var total time.Duration
			for _, d := range times {
				total += d
			}
			ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
			b.ReportMetric(ms(total)/float64(len(times)), "round-ms")
			b.ReportMetric(ms(st.build)/float64(st.rounds), "tsgbuild-ms")
			if bc.rounds > 1 {
				slices.Sort(times)
				b.ReportMetric(float64(times[len(times)-1])/float64(times[len(times)/2]), "slowest/median")
			}
		})
	}
}

// stageSum adds up the observed rounds' TSGBuild stage times.
type stageSum struct {
	build  time.Duration
	rounds int
}

func (s *stageSum) ObserveRound(_ RoundReport, st StageTimings, _, _ float64) {
	s.build += st.TSGBuild
	s.rounds++
}

// warmLog records, by round, whether each observed round's Louvain ran warm.
type warmLog map[int]bool

func (l warmLog) ObserveRound(rep RoundReport, st StageTimings, _, _ float64) {
	l[rep.Round] = st.Warm
}

// TestStreamerStageWarm: StageTimings.Warm reports the Louvain path. The
// first round has no previous partition and runs cold; on a clean series
// whose graph settles, later rounds run warm.
func TestStreamerStageWarm(t *testing.T) {
	det, err := NewDetector(12, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := warmLog{}
	det.SetObserver(log)
	pushAll(t, NewStreamer(det), synth(23, 3, 4, 400, nil, -1, -1))
	warm := 0
	for _, w := range log {
		if w {
			warm++
		}
	}
	if log[0] || warm == 0 {
		t.Fatalf("round 0 warm %v, %d of %d rounds warm; want a cold first round and some warm ones", log[0], warm, len(log))
	}
}

// TestStreamerFirstRoundRefresh: a stream's first round sums its empty
// accumulator's window exactly, to the bits pushing the window's columns
// one by one gives. The detector is warmed up on 5 rounds first, so the
// streamed first round is not the first of a cycle of 8 stripes.
func TestStreamerFirstRoundRefresh(t *testing.T) {
	const warm = 5
	cfg := incConfig(8)
	w := cfg.Window.W
	series := synth(17, 3, 4, 400, nil, -1, -1)
	det, err := NewDetector(12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.WarmUp(slice(t, series, 0, w+(warm-1)*cfg.Window.S)); err != nil {
		t.Fatal(err)
	}
	sr := NewStreamer(det)
	first := slice(t, series, 100, 100+w)
	if reps := pushAll(t, sr, first); len(reps) != 1 || reps[0].Round != warm {
		t.Fatalf("first window completed %+v, want round %d", reps, warm)
	}
	pushed := stats.NewSlidingCorr(12, w)
	for p := 0; p < w; p++ {
		pushed.Push(first.Column(p, nil))
	}
	sameSums(t, sr.acc, pushed)
}

// BenchmarkStreamerFill times an n=1000, w=64 stream from its creation
// through its first round: the pushes that fill the ring, then the round
// whose sweep sums the window and builds the first TSG. Run it with
// -cpu 1,2 to see the sweep's split.
func BenchmarkStreamerFill(b *testing.B) {
	const n, w = 1000, 64
	cfg := testConfig()
	cfg.Window = mts.Windowing{W: w, S: 4}
	series := synth(19, n/4, 4, w, nil, -1, -1)
	cols := make([][]float64, w)
	for p := range cols {
		cols[p] = series.Column(p, nil)
	}
	b.ReportAllocs()
	for b.Loop() {
		det, err := NewDetector(n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sr := NewStreamer(det)
		for _, col := range cols {
			if _, _, err := sr.Push(col); err != nil {
				b.Fatal(err)
			}
		}
	}
}
