package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"cad/internal/alert"
	"cad/internal/core"
	"cad/internal/manager"
	"cad/internal/serve"
)

// reference streams the first ncols columns of st through an in-process
// core.Streamer and returns every round report: the decisions cadserve must
// reproduce.
func reference(st stream, ncols int) ([]core.RoundReport, error) {
	det, err := core.NewDetector(st.series.Sensors(), st.cfg)
	if err != nil {
		return nil, err
	}
	sr := core.NewStreamer(det)
	col := make([]float64, st.series.Sensors())
	var reps []core.RoundReport
	for c := 0; c < ncols; c++ {
		rep, done, err := sr.Push(st.series.Column(c, col))
		if err != nil {
			return nil, fmt.Errorf("reference %s column %d: %w", st.id, c, err)
		}
		if done {
			reps = append(reps, rep)
		}
	}
	return reps, nil
}

// references runs reference for every stream in parallel, stream s over
// ncols[s] columns.
func references(w *workload, ncols []int) ([][]core.RoundReport, error) {
	out := make([][]core.RoundReport, len(w.streams))
	errs := make([]error, len(w.streams))
	next := make(chan int, len(w.streams))
	for s := range w.streams {
		next <- s
	}
	close(next)
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				out[s], errs[s] = reference(w.streams[s], ncols[s])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// abnormal returns the abnormal rounds of reps.
func abnormal(reps []core.RoundReport) []core.RoundReport {
	var out []core.RoundReport
	for _, r := range reps {
		if r.Abnormal {
			out = append(out, r)
		}
	}
	return out
}

// verdict collects the correctness findings of one run: decisions that
// differ from the reference, and problems that make the run invalid.
type verdict struct {
	mismatches int
	problems   []string
}

// fail records a decision (or tick count) differing from the reference.
func (v *verdict) fail(format string, args ...any) {
	v.mismatches++
	v.invalid(format, args...)
}

// invalid records a problem that makes the run unusable.
func (v *verdict) invalid(format string, args ...any) {
	if len(v.problems) < 20 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// check compares what cadserve did over the timed window with the
// in-process reference: every stream's tick count against the columns
// acknowledged, and its alarm decisions through the workload's own channel
// (per-request flags, the webhook, or /alarms read through the entry node).
func check(w *workload, entry string, outs []outcome, rcv *receiver) (verdict, error) {
	var v verdict
	c := &http.Client{Timeout: 30 * time.Second}
	acked := make([]int, len(w.streams))
	for i := range outs {
		if o := &outs[i]; o.ncols > 0 && o.ok() {
			acked[o.stream] += o.ncols
		}
	}
	status := make([]manager.StreamStatus, len(w.streams))
	for s, st := range w.streams {
		if err := call(c, http.MethodGet, entry+"/v1/streams/"+st.id+"/status", nil, &status[s]); err != nil {
			return v, err
		}
		if want := w.warmup + acked[s]; status[s].Ticks != want {
			v.fail("%s: /status ticks %d, acknowledged %d", st.id, status[s].Ticks, want)
		}
	}
	ncols := make([]int, len(w.streams))
	for s := range ncols {
		ncols[s] = w.warmup + acked[s]
		if w.checkRounds > 0 {
			ncols[s] = min(ncols[s], w.warmup+w.checkRounds*w.colsPerReq)
		}
	}
	refs, err := references(w, ncols)
	if err != nil {
		return v, err
	}
	switch {
	case w.checkRounds > 0:
		checkFlags(w, outs, refs[0], &v)
	case w.webhook:
		checkWebhook(w, status, refs, rcv, &v)
	default:
		for s, st := range w.streams {
			var got []manager.Alarm
			if err := call(c, http.MethodGet, fmt.Sprintf("%s/v1/streams/%s/alarms?limit=%d", entry, st.id, maxAlarms), nil, &got); err != nil {
				return v, err
			}
			want := abnormal(refs[s])
			want = want[max(0, len(want)-maxAlarms):]
			if !sameAlarms(got, want) {
				v.fail("%s: /alarms lists %d alarms, reference %d", st.id, len(got), len(want))
			}
		}
	}
	return v, nil
}

// maxAlarms is cadserve's per-stream alarm ring size.
const maxAlarms = 1024

func sameAlarms(got []manager.Alarm, want []core.RoundReport) bool {
	if len(got) != len(want) {
		return false
	}
	for i, a := range got {
		r := want[i]
		if a.Round != r.Round || a.Variations != r.Variations || !reflect.DeepEqual(a.Sensors, r.Outliers) {
			return false
		}
	}
	return true
}

// checkFlags compares the per-request abnormal flags of the first
// checkRounds timed rounds with the reference, and applies the calibration
// guard: a θ at or above the co-appearance plateau makes most sensors
// outliers every round, which is not the workload this is meant to be.
func checkFlags(w *workload, outs []outcome, ref []core.RoundReport, v *verdict) {
	// One connection carries the stream, so outs are in column order.
	var got []serve.IngestResponse
	for i := range outs {
		o := &outs[i]
		if o.ncols == 0 || !o.ok() {
			continue
		}
		var resp serve.BatchIngestResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			v.fail("ingest at column %d: undecodable answer: %v", o.col, err)
			continue
		}
		for _, r := range resp.Results {
			if r.RoundCompleted {
				got = append(got, r)
			}
		}
	}
	// Rounds completed by the warm-up columns were answered during set-up.
	timed := ref
	for len(timed) > 0 && timed[0].WindowEnd <= w.warmup {
		timed = timed[1:]
	}
	n := min(len(got), len(timed))
	for i := 0; i < n; i++ {
		g, r := got[i], timed[i]
		if g.Abnormal != r.Abnormal || (r.Abnormal && (g.Variations != r.Variations || !reflect.DeepEqual(g.Sensors, r.Outliers))) {
			v.fail("round %d: cadserve abnormal=%v variations=%d, reference abnormal=%v variations=%d",
				r.Round, g.Abnormal, g.Variations, r.Abnormal, r.Variations)
		}
	}
	if n == 0 {
		v.invalid("no timed round completed")
		return
	}
	var outliers int
	for _, r := range timed[:n] {
		outliers += len(r.Outliers)
	}
	share := float64(outliers) / float64(n) / float64(w.streams[0].series.Sensors())
	if share > w.maxOutlierShare {
		v.invalid("calibration: %.1f%% of sensors are outliers per round on clean data (limit %.1f%%): θ is at or above the co-appearance plateau",
			100*share, 100*w.maxOutlierShare)
	}
}

// checkWebhook waits for the webhook to deliver every alarm the streams
// report, then compares the alarmed rounds with the reference.
func checkWebhook(w *workload, status []manager.StreamStatus, refs [][]core.RoundReport, rcv *receiver, v *verdict) {
	index := map[string]int{}
	for s, st := range w.streams {
		index[st.id] = s
	}
	collect := func() [][]int {
		rounds := make([][]int, len(w.streams))
		seen := map[[2]int]bool{}
		for _, r := range rcv.peek() {
			s, ok := index[r.ev.Stream]
			if !ok || r.ev.Type != alert.TypeAlarm || seen[[2]int{s, r.ev.Round}] {
				continue
			}
			seen[[2]int{s, r.ev.Round}] = true
			rounds[s] = append(rounds[s], r.ev.Round)
		}
		return rounds
	}
	deadline := time.Now().Add(15 * time.Second)
	var rounds [][]int
	for {
		rounds = collect()
		complete := true
		for s := range w.streams {
			if len(rounds[s]) < status[s].Alarms {
				complete = false
			}
		}
		if complete || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if bad := rcv.undecodable(); bad > 0 {
		v.invalid("%d webhook bodies did not decode as alert events", bad)
	}
	for s, st := range w.streams {
		var want []int
		for _, r := range abnormal(refs[s]) {
			want = append(want, r.Round)
		}
		got := rounds[s]
		sort.Ints(got)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			v.fail("%s: webhook delivered %d alarm rounds, reference %d", st.id, len(got), len(want))
		}
	}
}
