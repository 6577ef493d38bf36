package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"cad/internal/alert"
	"cad/internal/core"
	"cad/internal/manager"
	"cad/internal/obs"
	"cad/internal/serve"
	"cad/internal/stats"
	"cad/internal/wal"
)

// span is one timed call into a layer, as written to the trace file. Its id
// is its 0-based line number; parent is the enclosing span's id or -1; req
// numbers the replayed request (equal across passes for equal inputs, -1
// for work outside any request); allocs is the heap-allocation count over
// the span where measured, -1 elsewhere.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Allocs int64  `json:"allocs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which lets the replay paths run untraced during set-up.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Req: req, Allocs: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = t.now()
	}
}

// record adds a span whose bounds were measured elsewhere.
func (t *tracer) record(name string, start, end int64, parent, req int) {
	if t != nil {
		t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req, Allocs: -1})
	}
}

// mallocs reads the cumulative heap-allocation count. It stops the world,
// so callers read it outside the spans they time.
func mallocs() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs)
}

// timed runs fn inside a root span that also counts its allocations; fn
// gets the span's id to parent its own spans on.
func (t *tracer) timed(name string, req int, fn func(id int)) {
	if t == nil {
		fn(-1)
		return
	}
	m0 := mallocs()
	id := t.begin(name, -1, req)
	fn(id)
	t.end(id)
	t.spans[id].Allocs = mallocs() - m0
}

// layerTotals aggregates spans per name: count, total and self time (the
// span minus the time its children cover), and allocations.
type layerTotals struct {
	count       int
	total, self time.Duration
	allocs      int64
}

func aggregate(spans []span, include func(span) bool) map[string]*layerTotals {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range spans {
		if !include(s) {
			continue
		}
		a := out[s.Name]
		if a == nil {
			a = &layerTotals{}
			out[s.Name] = a
		}
		d := time.Duration(s.End - s.Start)
		a.count++
		a.total += d
		a.self += d - child[i]
		if s.Allocs > 0 {
			a.allocs += s.Allocs
		}
	}
	return out
}

// passEnv is what every traced pass builds the same way cadserve does from
// its flags: a write-ahead log with interval fsync, the 1024-alarm rings,
// and an alert bus carrying a webhook sink when the workload has one.
type passEnv struct {
	dir     string
	hookURL string
}

func (e passEnv) newBus(reg *obs.Registry) (*alert.Bus, error) {
	bus, err := alert.NewBus(alert.Options{Registry: reg, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return nil, err
	}
	if e.hookURL != "" {
		sink, err := alert.NewWebhookSink(e.hookURL, nil, 0)
		if err == nil {
			err = bus.AddSink("webhook", sink, alert.SinkConfig{Queue: 256})
		}
		if err != nil {
			_ = bus.Close()
			return nil, err
		}
	}
	return bus, nil
}

func (e passEnv) newManager(name string, reg *obs.Registry, bus *alert.Bus) *manager.Manager {
	return manager.New(manager.Options{
		Capacity: 128, WALDir: filepath.Join(e.dir, name), Fsync: manager.FsyncInterval,
		MaxAlarms: maxAlarms, Registry: reg, Alerts: bus,
	})
}

// dropStreams deletes every stream, which closes and removes its log.
func dropStreams(mgr *manager.Manager) {
	for _, info := range mgr.List() {
		_ = mgr.Delete(info.ID) // ids come from the listing, so they exist
	}
}

// tracedRun is the outcome of the three passes over one workload.
type tracedRun struct {
	tr *tracer
	// ingest[req] tells ingest requests from reads.
	ingest []bool
	cols   int
	// walBytes is the on-disk size of the manager pass's logs, which hold
	// walCols columns: the warm-up and the replayed ones.
	walBytes int64
	walCols  int
	rounds   int
	// outlierFree counts replayed rounds entered with an empty outlier
	// set; louvain holds each round's Louvain time.
	outlierFree int
	louvain     []time.Duration
}

// tracePasses replays jobs three times over identical inputs: through the
// service handler (serve pass), through JSON decode plus
// manager.IngestBatch (manager pass), and through the benchmark's own copy
// of the streaming pipeline built from the layers' public functions
// (mirror pass). The mirror's round reports must equal the manager pass's.
func tracePasses(w *workload, jobs []job, env passEnv) (*tracedRun, error) {
	run := &tracedRun{tr: newTracer(16 * len(jobs)), ingest: make([]bool, len(jobs))}
	bodies := make([][]byte, len(jobs))
	for i, j := range jobs {
		bodies[i] = encodeJob(w, j)
		run.ingest[i] = j.ncols > 0
		run.cols += j.ncols
	}
	if err := servePass(w, jobs, bodies, env, run.tr); err != nil {
		return nil, fmt.Errorf("serve pass: %w", err)
	}
	want, err := managerPass(w, jobs, bodies, env, run)
	if err != nil {
		return nil, fmt.Errorf("manager pass: %w", err)
	}
	got, mirrorBytes, err := mirrorPass(w, jobs, env, run)
	if err != nil {
		return nil, fmt.Errorf("mirror pass: %w", err)
	}
	for s, st := range w.streams {
		if !reflect.DeepEqual(got[s], want[s]) {
			return nil, fmt.Errorf("mirror pass: %s: round reports differ from the manager pass (%d vs %d rounds)", st.id, len(got[s]), len(want[s]))
		}
	}
	// The mirror's wal spans stand for the manager's appends only while its
	// records are the same size.
	if mirrorBytes != run.walBytes {
		return nil, fmt.Errorf("mirror pass: its logs hold %d bytes, the manager's %d: the mirror's WAL records no longer match the manager's", mirrorBytes, run.walBytes)
	}
	return run, nil
}

// walSize sums the WAL segment files under dir, leaving out snapshots.
func walSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".wal") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// servePass drives the service handler in-process, one serve.handler span
// per request.
func servePass(w *workload, jobs []job, bodies [][]byte, env passEnv, tr *tracer) error {
	reg := obs.NewRegistry()
	bus, err := env.newBus(reg)
	if err != nil {
		return err
	}
	defer bus.Close()
	mgr := env.newManager("serve-wal", reg, bus)
	defer dropStreams(mgr)
	det, err := core.NewDetector(2, core.DefaultConfig(2, 10000))
	if err != nil {
		return err
	}
	logFile, err := os.Create(filepath.Join(env.dir, "serve-pass.log"))
	if err != nil {
		return err
	}
	defer logFile.Close()
	// cadserve logs every request, unbuffered, to its stderr file.
	svc := serve.NewWithOptions(det, serve.Options{Manager: mgr, Alerts: bus, Logger: slog.New(slog.NewTextHandler(logFile, nil))})
	h := svc.Handler()
	serveOne := func(method, path string, body []byte) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code/100 != 2 {
			return fmt.Errorf("%s %s: %d %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return nil
	}
	for _, st := range w.streams {
		cfg := st.cfg
		body, err := json.Marshal(serve.CreateStreamRequest{ID: st.id, Sensors: st.series.Sensors(), Config: &cfg})
		if err != nil {
			return err
		}
		if err := serveOne(http.MethodPost, "/v1/streams", body); err != nil {
			return err
		}
		if err := serveOne(http.MethodPost, "/v1/streams/"+st.id+"/ingest", encodeColumns(nil, st.series, 0, w.warmup)); err != nil {
			return err
		}
	}
	for i, j := range jobs {
		path, method := "/v1/streams/"+w.streams[j.stream].id, http.MethodGet
		if j.ncols > 0 {
			path, method = path+"/ingest", http.MethodPost
		} else {
			path += j.read
		}
		req := httptest.NewRequest(method, path, bytes.NewReader(bodies[i]))
		rec := httptest.NewRecorder()
		tr.timed("serve.handler", i, func(int) { h.ServeHTTP(rec, req) })
		if rec.Code/100 != 2 {
			return fmt.Errorf("%s %s: %d %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
	}
	return nil
}

// decodeIngest is the handler's body decode: a JSON column or an NDJSON
// batch of them.
func decodeIngest(body []byte) ([][]float64, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var cols [][]float64
	for {
		var req serve.IngestRequest
		err := dec.Decode(&req)
		if errors.Is(err, io.EOF) {
			return cols, nil
		}
		if err != nil {
			return nil, err
		}
		cols = append(cols, req.Readings)
	}
}

// managerPass times the decode and manager.IngestBatch of every ingest and
// the manager reads, returning each stream's replayed round reports. It
// also measures the logs it leaves on disk into run.walBytes and walCols.
func managerPass(w *workload, jobs []job, bodies [][]byte, env passEnv, run *tracedRun) ([][]core.RoundReport, error) {
	tr := run.tr
	reg := obs.NewRegistry()
	bus, err := env.newBus(reg)
	if err != nil {
		return nil, err
	}
	defer bus.Close()
	mgr := env.newManager("manager-wal", reg, bus)
	defer dropStreams(mgr)
	for _, st := range w.streams {
		if _, err := mgr.Create(st.id, st.series.Sensors(), st.cfg); err != nil {
			return nil, err
		}
		cols, err := decodeIngest(encodeColumns(nil, st.series, 0, w.warmup))
		if err != nil {
			return nil, err
		}
		if _, err := mgr.IngestBatch(st.id, cols); err != nil {
			return nil, err
		}
	}
	reps := make([][]core.RoundReport, len(w.streams))
	read := func(s, req int, alarms bool) error {
		var err error
		tr.timed("manager.read", req, func(int) {
			if alarms {
				_, err = mgr.Alarms(w.streams[s].id, 50, 0)
			} else {
				_, err = mgr.Status(w.streams[s].id)
			}
		})
		return err
	}
	for i, j := range jobs {
		id := w.streams[j.stream].id
		if j.ncols == 0 {
			if err := read(j.stream, i, j.read != "/status"); err != nil {
				return nil, err
			}
			continue
		}
		var cols [][]float64
		var res []manager.IngestResult
		var err error
		tr.timed("serve.decode", i, func(int) { cols, err = decodeIngest(bodies[i]) })
		if err != nil {
			return nil, err
		}
		tr.timed("manager.ingest_batch", i, func(int) { res, err = mgr.IngestBatch(id, cols) })
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			if r.RoundCompleted {
				reps[j.stream] = append(reps[j.stream], r.Report)
			}
		}
	}
	// Every workload reads each stream once at the end, so the read path
	// is measured even where the traffic carries no reads.
	for s := range w.streams {
		if err := read(s, -1, true); err != nil {
			return nil, err
		}
		if err := read(s, -1, false); err != nil {
			return nil, err
		}
	}
	// Every column stays in the logs: no stream reaches the manager's
	// 4096-record checkpoint within the traced prefix.
	run.walCols = len(w.streams)*w.warmup + run.cols
	run.walBytes, err = walSize(filepath.Join(env.dir, "manager-wal"))
	return reps, err
}

// stageObserver keeps the stage timings of the detector's latest round.
type stageObserver struct{ last core.StageTimings }

func (o *stageObserver) ObserveRound(_ core.RoundReport, t core.StageTimings, _, _ float64) {
	o.last = t
}

// mirrorStream is the benchmark's copy of one manager stream: the
// Streamer.Push pipeline rebuilt from stats.SlidingCorr and
// core.Detector.ProcessCorr, the tracker, the write-ahead log and the alert
// numbering, each call timed separately.
type mirrorStream struct {
	id     string
	det    *core.Detector
	obs    *stageObserver
	acc    *stats.SlidingCorr
	trk    *core.Tracker
	log    *wal.Log
	synced time.Time

	w, step, refreshEvery int
	ring                  [][]float64
	rows                  [][]float64
	oldCol                []float64
	pos, filled, pending  int
	started               bool
	seq                   int

	tick, anomalySeq, openID int
	outliers                 bool
}

func newMirrorStream(st stream, dir string) (*mirrorStream, error) {
	det, err := core.NewDetector(st.series.Sensors(), st.cfg)
	if err != nil {
		return nil, err
	}
	o := &stageObserver{}
	det.SetObserver(o)
	// The manager syncs under the interval policy inside Append; the
	// mirror syncs itself on the same cadence so the fsync is its own span.
	log, err := wal.Open(filepath.Join(dir, st.id), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return nil, err
	}
	n, cfg := st.series.Sensors(), st.cfg
	m := &mirrorStream{
		id: st.id, det: det, obs: o, acc: stats.NewSlidingCorr(n, cfg.Window.W),
		trk: core.NewTracker(cfg), log: log, synced: time.Now(),
		w: cfg.Window.W, step: cfg.Window.S, refreshEvery: cfg.RefreshEvery,
		ring: make([][]float64, n), rows: make([][]float64, n), oldCol: make([]float64, n),
	}
	if m.refreshEvery <= 0 {
		m.refreshEvery = 64
	}
	for i := range m.ring {
		m.ring[i] = make([]float64, m.w)
		m.rows[i] = make([]float64, m.w)
	}
	return m, nil
}

// syncEvery is cadserve's default -fsync-interval.
const syncEvery = 100 * time.Millisecond

// column applies one column the way manager.IngestBatch does: WAL append
// first, then the streaming pipeline, the tracker and the alert events. A
// nil run applies it untimed (the warm-up).
func (m *mirrorStream) column(col []float64, bus *alert.Bus, run *tracedRun, req int) (core.RoundReport, bool, error) {
	var tr *tracer
	if run != nil {
		tr = run.tr
	}
	id := tr.begin("wal.append", -1, req)
	rec := make([]byte, 8*len(col))
	for i, v := range col {
		binary.LittleEndian.PutUint64(rec[8*i:], math.Float64bits(v))
	}
	err := m.log.Append(uint64(m.seq+1), time.Now(), rec)
	tr.end(id)
	if err != nil {
		return core.RoundReport{}, false, err
	}
	if time.Since(m.synced) >= syncEvery {
		if err := m.sync(tr, req); err != nil {
			return core.RoundReport{}, false, err
		}
	}
	var rep core.RoundReport
	var done bool
	entered := m.outliers
	tr.timed("core.push", req, func(id int) { rep, done, err = m.push(col, tr, id, req) })
	if err != nil {
		return rep, false, err
	}
	m.tick++
	if !done {
		return rep, false, nil
	}
	if run != nil {
		run.rounds++
		if !entered {
			run.outlierFree++
		}
		run.louvain = append(run.louvain, m.obs.last.Louvain)
	}
	m.outliers = len(rep.Outliers) > 0
	id = tr.begin("core.tracker", -1, req)
	m.trk.Push(rep)
	finished := m.trk.Drain()
	tr.end(id)
	for _, ev := range m.events(rep, finished) {
		id := tr.begin("alert.publish", -1, req)
		bus.Publish(ev)
		tr.end(id)
	}
	return rep, true, nil
}

func (m *mirrorStream) sync(tr *tracer, req int) error {
	id := tr.begin("wal.sync", -1, req)
	err := m.log.Sync()
	tr.end(id)
	m.synced = time.Now()
	return err
}

// push mirrors core.Streamer.Push on the incremental path.
func (m *mirrorStream) push(col []float64, tr *tracer, parent, req int) (core.RoundReport, bool, error) {
	wasFull := m.filled == m.w
	if wasFull {
		for i := range m.oldCol {
			m.oldCol[i] = m.ring[i][m.pos]
		}
	}
	for i, v := range col {
		m.ring[i][m.pos] = v
	}
	m.pos = (m.pos + 1) % m.w
	if m.filled < m.w {
		m.filled++
	}
	m.pending++
	m.seq++
	if wasFull {
		id := tr.begin("stats.slide", parent, req)
		m.acc.Slide(col, m.oldCol)
		tr.end(id)
	} else {
		id := tr.begin("stats.push", parent, req)
		m.acc.Push(col)
		tr.end(id)
	}
	need := m.w
	if m.started {
		need = m.step
	}
	if m.filled < m.w || m.pending < need {
		return core.RoundReport{}, false, nil
	}
	if m.det.Rounds()%m.refreshEvery == 0 {
		for i, r := range m.ring {
			copy(m.rows[i], r[m.pos:])
			copy(m.rows[i][m.w-m.pos:], r[:m.pos])
		}
		id := tr.begin("stats.refresh", parent, req)
		m.acc.Refresh(m.rows)
		tr.end(id)
	}
	id := tr.begin("stats.corr", parent, req)
	corr := m.acc.Corr()
	tr.end(id)
	id = tr.begin("core.process_corr", parent, req)
	rep, err := m.det.ProcessCorr(corr, nil)
	tr.end(id)
	if err != nil {
		return core.RoundReport{}, false, err
	}
	if tr != nil {
		// The observer reports the stage durations; they run back to back
		// from the start of ProcessCorr.
		t, at := m.obs.last, tr.spans[id].Start
		for _, stage := range []struct {
			name string
			d    time.Duration
		}{{"tsg.repair", t.TSGBuild}, {"louvain", t.Louvain}, {"core.advance", t.Advance}} {
			tr.record(stage.name, at, at+int64(stage.d), id, req)
			at += int64(stage.d)
		}
	}
	m.pending = 0
	m.started = true
	rep.WindowEnd = m.seq
	return rep, true, nil
}

// events numbers anomalies and builds the alert events of one round as the
// manager does.
func (m *mirrorStream) events(rep core.RoundReport, finished []core.Anomaly) []alert.Event {
	var out []alert.Event
	now := time.Now()
	for _, a := range finished {
		id := m.openID
		if id == 0 {
			m.anomalySeq++
			id = m.anomalySeq
		}
		m.openID = 0
		out = append(out, alert.Event{
			Stream: m.id, Type: alert.TypeAnomalyClosed, Time: now, AnomalyID: id,
			Round: a.LastRound, Tick: m.tick, Score: a.Score, Sensors: a.RootCauses(),
			Start: a.Start, End: a.End,
		})
	}
	if !rep.Abnormal {
		return out
	}
	typ := alert.TypeAnomalyUpdated
	if m.openID == 0 {
		m.anomalySeq++
		m.openID = m.anomalySeq
		typ = alert.TypeAnomalyOpened
	}
	ev := alert.Event{
		Stream: m.id, Type: typ, Time: now, AnomalyID: m.openID, Round: rep.Round,
		Tick: m.tick, Score: rep.Score, Variations: rep.Variations, Sensors: rep.Outliers,
	}
	out = append(out, ev)
	ev.Type = alert.TypeAlarm
	return append(out, ev)
}

// mirrorPass replays the ingest jobs through mirror streams and returns
// each stream's replayed round reports and the size of the logs it wrote.
func mirrorPass(w *workload, jobs []job, env passEnv, run *tracedRun) ([][]core.RoundReport, int64, error) {
	bus, err := env.newBus(obs.NewRegistry())
	if err != nil {
		return nil, 0, err
	}
	defer bus.Close()
	dir := filepath.Join(env.dir, "mirror-wal")
	ms := make([]*mirrorStream, len(w.streams))
	defer func() {
		for _, m := range ms {
			if m != nil {
				m.log.Close()
			}
		}
	}()
	for s, st := range w.streams {
		if ms[s], err = newMirrorStream(st, dir); err != nil {
			return nil, 0, err
		}
		col := make([]float64, st.series.Sensors())
		for c := 0; c < w.warmup; c++ {
			if _, _, err := ms[s].column(st.series.Column(c, col), bus, nil, -1); err != nil {
				return nil, 0, err
			}
		}
	}
	reps := make([][]core.RoundReport, len(w.streams))
	for i, j := range jobs {
		st := w.streams[j.stream]
		col := make([]float64, st.series.Sensors())
		for c := j.col; c < j.col+j.ncols; c++ {
			// The manager pass decodes the column from JSON; the mirror
			// takes it straight from the series.
			rep, done, err := ms[j.stream].column(st.series.Column(c, col), bus, run, i)
			if err != nil {
				return nil, 0, err
			}
			if done {
				reps[j.stream] = append(reps[j.stream], rep)
			}
		}
	}
	for _, m := range ms {
		if err := m.sync(run.tr, -1); err != nil {
			return nil, 0, err
		}
	}
	size, err := walSize(dir)
	return reps, size, err
}
