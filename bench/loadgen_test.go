package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cad/internal/mts"
)

// TestOpenLoopChargesStall stalls a fake server once for 100 ms and checks
// that the requests queued behind the stall report latency from their
// scheduled send time, and that the generator's lateness and backlog show
// the stall.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	// One stream, one connection, one column every 5 ms.
	w := &workload{
		streams:    []stream{{id: "s", series: mts.Zeros(2, 100)}},
		colsPerReq: 1, conns: 1, streamRate: 200,
	}
	c := newClient(srv.URL)
	defer c.close()
	outs, _, loop := openLoop(w, w.jobs(), []*client{c}, 200*time.Millisecond, false)
	if len(outs) != 40 {
		t.Fatalf("%d requests dispatched in 200 ms at 5 ms spacing, want 40", len(outs))
	}
	for _, o := range outs {
		if !o.ok() {
			t.Fatalf("request at %v failed: status %d, %v", o.at, o.status, o.err)
		}
		if got := o.latency(); got < o.done.Sub(o.sent) {
			t.Errorf("request at %v: latency %v shorter than its round trip %v", o.at, got, o.done.Sub(o.sent))
		}
	}
	// The first request left on time and stalled; those due meanwhile leave
	// when it returns, so their latency counts the time they waited.
	const slack = 20 * time.Millisecond
	for i, o := range outs[:10] {
		waited := stall - o.at
		if late := o.sent.Sub(o.sched); i > 0 && late < waited-slack {
			t.Errorf("request due at %v left %v late, want ≈%v", o.at, late, waited)
		}
		if got := o.latency(); got < waited-slack {
			t.Errorf("request due at %v: latency %v, want ≥ %v from its scheduled time", o.at, got, waited-slack)
		}
	}
	if loop.backlogMax < 10 {
		t.Errorf("backlog peaked at %d requests, want ≥ 10 behind a %v stall at 5 ms spacing", loop.backlogMax, stall)
	}
	var maxLate time.Duration
	for _, l := range loop.late {
		maxLate = max(maxLate, l)
	}
	if maxLate < stall-5*time.Millisecond-slack {
		t.Errorf("generator ran at most %v late, want ≈%v", maxLate, stall-5*time.Millisecond)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // NaN: refused
	}{
		{1000, 0.99, 990}, {999, 0.99, math.NaN()},
		{200, 0.95, 190}, {199, 0.95, math.NaN()},
		{20, 0.50, 10}, {19, 0.50, math.NaN()},
		{0, 0.50, math.NaN()},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if math.IsNaN(tc.want) {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want a refusal (fewer than %d beyond)", 100*tc.q, tc.n, got, minBeyond)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", 100*tc.q, tc.n, got, err, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles and median to Python's
// statistics.quantiles(xs, n=4) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, q3, med float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{9, 1, 5}, 1, 9, 5},
		{[]float64{3.5, 1.25}, 0.6875, 4.0625, 2.375},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
		if m := median(tc.xs); m != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, tc.med)
		}
	}
}
