package main

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"cad/internal/alert"
)

// runConfig is how every workload of an invocation runs.
type runConfig struct {
	bin, work string
	seconds   float64
	// setups is how many times set-up runs, each on fresh processes; the
	// last set of processes serves the timed window.
	setups int
	trace  bool
}

// result is one run of one workload.
type result struct {
	workload string
	seed     int64
	// values holds every metric computed; missing says why the others
	// could not be.
	values  map[string]float64
	missing map[string]string
	// attempted and failed count the timed window's requests.
	attempted, failed int
	verdict           verdict
	// window describes what the timed window did, for the report.
	window string
	traced *tracedRun
	// ledger aggregates every traced span by name.
	ledger map[string]*layerTotals
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) setPct(name string, xs []float64, q float64) {
	v, err := percentile(xs, q)
	if err != nil {
		r.missing[name] = err.Error()
		return
	}
	r.values[name] = v
}

func (r *result) correct() bool { return r.verdict.mismatches == 0 && len(r.verdict.problems) == 0 }

// runWorkload sets the workload up setups times on fresh processes, drives
// the last set through the timed window, checks the outcome, and — with
// tracing — replays its first requests through the traced passes.
func runWorkload(w *workload, seed int64, cfg runConfig) (*result, error) {
	res := &result{workload: w.name, seed: seed, values: map[string]float64{}, missing: map[string]string{}}
	jobs := w.jobs()
	var rcv *receiver
	hook := ""
	if w.webhook {
		var err error
		if rcv, err = startReceiver(); err != nil {
			return nil, err
		}
		defer rcv.close()
		hook = rcv.url()
	}
	var nodes []*node
	defer func() { stopNodes(nodes) }()
	admin := &http.Client{Timeout: 60 * time.Second}
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if rcv != nil {
			rcv.take() // events of an earlier, discarded set-up
		}
		dir, err := os.MkdirTemp(cfg.work, "setup-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ns, err := startNodes(cfg.bin, dir, w.nodes, hook)
		if err != nil {
			return nil, err
		}
		if err := createStreams(admin, ns[0].url, w); err != nil {
			stopNodes(ns)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i < cfg.setups-1 {
			stopNodes(ns)
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		nodes = ns
	}
	res.set("setup_s", median(setupS))

	entry := nodes[0].url
	before, err := scrapeIngestTime(admin, entry)
	if err != nil {
		return nil, err
	}
	clients := make([]*client, w.conns)
	for i := range clients {
		clients[i] = newClient(entry)
		defer clients[i].close()
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	keep := w.checkRounds > 0
	var (
		outs  []outcome
		start time.Time
		loop  loopStats
	)
	if w.openLoop() {
		outs, start, loop = openLoop(w, jobs, clients, window, keep)
	} else {
		outs, start = closedLoop(w, jobs, clients, window, keep)
	}
	after, err := scrapeIngestTime(admin, entry)
	if err != nil {
		return nil, err
	}
	var rss float64
	for _, nd := range nodes {
		mb, err := nd.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	res.set("rss_peak_mb", rss)

	res.verdict, err = check(w, entry, outs, rcv)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	stopNodes(nodes)
	nodes = nil

	res.windowMetrics(w, outs, start)
	if after.count > before.count {
		res.set("serve.server_us_per_req", 1e6*(after.sum-before.sum)/(after.count-before.count))
	}
	res.loadgenMetrics(w, outs, loop)
	if rcv != nil {
		res.alertMetrics(w, outs, start, rcv.take())
	}

	if cfg.trace {
		dir, err := os.MkdirTemp(cfg.work, "trace-")
		if err != nil {
			return nil, err
		}
		res.traced, err = tracePasses(w, w.traceJobs(jobs), passEnv{dir: dir, hookURL: hook})
		if err != nil {
			return nil, err
		}
		res.layerMetrics()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// windowMetrics derives the end-to-end figures of the timed window.
func (r *result) windowMetrics(w *workload, outs []outcome, start time.Time) {
	var ingest, reads []float64
	cols := 0
	end := start
	for i := range outs {
		o := &outs[i]
		r.attempted++
		if !o.ok() {
			r.failed++
			continue
		}
		if o.done.After(end) {
			end = o.done
		}
		ms := float64(o.latency()) / 1e6
		if o.ncols > 0 {
			ingest = append(ingest, ms)
			cols += o.ncols
		} else {
			reads = append(reads, ms)
		}
	}
	secs := end.Sub(start).Seconds()
	r.window = fmt.Sprintf("%d requests (%d ingests, %d reads) in %.1f s", r.attempted, len(ingest), len(reads), secs)
	if secs > 0 && cols > 0 {
		r.set("ingest_cols_per_s", float64(cols)/secs)
	}
	r.setPct("req_p50_ms", ingest, 0.50)
	r.setPct("req_p95_ms", ingest, 0.95)
	r.setPct("req_p99_ms", ingest, 0.99)
	if w.readRate > 0 {
		r.setPct("read_p50_ms", reads, 0.50)
		r.setPct("read_p99_ms", reads, 0.99)
	}
	if r.attempted > 0 {
		r.set("error_ratio", float64(r.failed)/float64(r.attempted))
	}
	r.set("decision_mismatches", float64(r.verdict.mismatches))
}

// loadgenMetrics reports what the generator and the network added, and
// for a cluster how the forward hop changed latency.
func (r *result) loadgenMetrics(w *workload, outs []outcome, loop loopStats) {
	var client, local, forwarded []float64
	for i := range outs {
		o := &outs[i]
		if o.ncols == 0 || !o.ok() {
			continue
		}
		us := float64(o.done.Sub(o.sent)) / 1e3
		client = append(client, us)
		if o.node == "" || o.node == "a" {
			local = append(local, us)
		} else {
			forwarded = append(forwarded, us)
		}
	}
	if srv, ok := r.values["serve.server_us_per_req"]; ok && len(client) > 0 {
		r.set("loadgen.net_us_per_req", mean(client)-srv)
	}
	if w.openLoop() {
		late := make([]float64, len(loop.late))
		for i, d := range loop.late {
			late[i] = float64(d) / 1e6
		}
		r.setPct("loadgen.late_p99_ms", late, 0.99)
		r.set("loadgen.backlog_max", float64(loop.backlogMax))
	}
	if w.nodes > 1 && len(client) > 0 {
		r.set("cluster.forwarded_ratio", float64(len(forwarded))/float64(len(client)))
		if len(forwarded) > 0 && len(local) > 0 {
			r.set("cluster.forward_us_per_req", median(forwarded)-median(local))
		}
	}
}

// alertMetrics measures alarm latency — from the scheduled send of the
// column that completed the alarmed round to webhook receipt — and the
// delivery delay after the server stamped each event of the timed window.
func (r *result) alertMetrics(w *workload, outs []outcome, start time.Time, events []received) {
	sched := map[[2]int]time.Time{}
	for i := range outs {
		if o := &outs[i]; o.ncols > 0 {
			sched[[2]int{o.stream, o.col + o.ncols - 1}] = o.sched
		}
	}
	index := map[string]int{}
	for s, st := range w.streams {
		index[st.id] = s
	}
	seen := map[[2]int]bool{}
	var alarm, deliver []float64
	for _, e := range events {
		if !e.ev.Time.Before(start) {
			deliver = append(deliver, float64(e.at.Sub(e.ev.Time))/1e6)
		}
		s, ok := index[e.ev.Stream]
		if !ok || e.ev.Type != alert.TypeAlarm || seen[[2]int{s, e.ev.Round}] {
			continue
		}
		seen[[2]int{s, e.ev.Round}] = true
		// Tick counts the stream's columns, so the alarm's column is tick−1.
		if at, ok := sched[[2]int{s, e.ev.Tick - 1}]; ok && !at.IsZero() {
			alarm = append(alarm, float64(e.at.Sub(at))/1e6)
		}
	}
	if len(alarm) < w.minAlarms {
		r.verdict.invalid("%d alarms reached the webhook, want at least %d", len(alarm), w.minAlarms)
	}
	r.setPct("alarm_p50_ms", alarm, 0.50)
	r.setPct("alarm_p95_ms", alarm, 0.95)
	r.setPct("alert.deliver_ms_p50", deliver, 0.50)
	r.setPct("alert.deliver_ms_p95", deliver, 0.95)
}

// layerMetrics derives the per-layer figures from the traced passes.
func (r *result) layerMetrics() {
	t := r.traced
	r.ledger = aggregate(t.tr.spans, func(span) bool { return true })
	ingest := aggregate(t.tr.spans, func(s span) bool { return s.Req >= 0 && t.ingest[s.Req] })
	get := func(m map[string]*layerTotals, name string) layerTotals {
		if a := m[name]; a != nil {
			return *a
		}
		return layerTotals{}
	}
	per := func(metric string, d time.Duration, n int, unit time.Duration) {
		if n > 0 {
			r.set(metric, float64(d)/float64(n)/float64(unit))
		} else {
			r.missing[metric] = "no calls in the traced replay"
		}
	}
	perCall := func(metric string, a layerTotals, unit time.Duration) { per(metric, a.total, a.count, unit) }
	sum := func(names ...string) time.Duration {
		var d time.Duration
		for _, name := range names {
			d += get(ingest, name).total
		}
		return d
	}

	handler := get(ingest, "serve.handler")
	decode, batch := get(ingest, "serve.decode"), get(ingest, "manager.ingest_batch")
	per("serve.decode_us_per_col", decode.total, t.cols, time.Microsecond)
	per("serve.self_us_per_req", handler.total-decode.total-batch.total, handler.count, time.Microsecond)
	per("manager.self_us_per_col", batch.total-sum("wal.append", "wal.sync", "core.push", "core.tracker", "alert.publish"),
		t.cols, time.Microsecond)
	perCall("manager.read_us_per_call", get(r.ledger, "manager.read"), time.Microsecond)
	per("wal.append_us_per_col", sum("wal.append"), t.cols, time.Microsecond)
	if t.walCols > 0 {
		r.set("wal.bytes_per_col", float64(t.walBytes)/float64(t.walCols))
	}
	perCall("wal.sync_ms_per_call", get(r.ledger, "wal.sync"), time.Millisecond)
	per("stats.slide_us_per_col", sum("stats.slide", "stats.push"), t.cols, time.Microsecond)
	perCall("stats.corr_ms_per_round", get(ingest, "stats.corr"), time.Millisecond)
	perCall("stats.refresh_ms_per_refresh", get(ingest, "stats.refresh"), time.Millisecond)
	perCall("core.process_corr_ms_per_round", get(ingest, "core.process_corr"), time.Millisecond)
	perCall("core.advance_us_per_round", get(ingest, "core.advance"), time.Microsecond)
	perCall("core.tracker_us_per_round", get(ingest, "core.tracker"), time.Microsecond)
	perCall("tsg.repair_ms_per_round", get(ingest, "tsg.repair"), time.Millisecond)
	perCall("alert.publish_us_per_event", get(ingest, "alert.publish"), time.Microsecond)
	if t.rounds > 0 {
		r.set("core.allocs_per_round", float64(get(ingest, "core.push").allocs)/float64(t.rounds))
		r.set("core.outlier_free_round_ratio", float64(t.outlierFree)/float64(t.rounds))
	}
	lv := make([]float64, len(t.louvain))
	for i, d := range t.louvain {
		lv[i] = float64(d) / 1e6
	}
	r.setPct("louvain.ms_per_round_p50", lv, 0.50)
	r.setPct("louvain.ms_per_round_p99", lv, 0.99)
	if srv, ok := r.values["serve.server_us_per_req"]; ok && handler.count > 0 {
		r.set("trace.overhead_ratio", float64(handler.total)/float64(handler.count)/1e3/srv-1)
	}
	if handler.total > 0 {
		covered := sum("serve.decode", "stats.push", "stats.slide", "stats.refresh", "stats.corr",
			"core.process_corr", "core.tracker", "wal.append", "wal.sync", "alert.publish")
		r.set("trace.coverage_ratio", float64(covered)/float64(handler.total))
	}
}
