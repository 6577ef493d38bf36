package manager

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"cad/internal/alert"
	"cad/internal/core"
	"cad/internal/faultfs"
	"cad/internal/scenario"
)

// scheduleEnv reads an integer test knob from the environment; make
// crashtest pins them so CI failures reproduce.
func scheduleEnv(name string, def int64) int64 {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

// sameAlarms compares alarms on every decision field, and on the arrival
// timestamp too when stamped is set. Alarms of different managers cannot
// share timestamps: each manager's clock is called a different number of
// times.
func sameAlarms(t *testing.T, label string, got, want []Alarm, stamped bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d alarms, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Round != w.Round || g.Tick != w.Tick || g.Variations != w.Variations ||
			g.Score != w.Score || !slices.Equal(g.Sensors, w.Sensors) ||
			stamped && !g.Time.Equal(w.Time) {
			t.Fatalf("%s: alarm %d differs:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

const scheduleID = "plant"

// scheduleRun is what one pass over the stream produced: a result per
// column, the alert events, and the stream as it ended.
type scheduleRun struct {
	reports []IngestResult
	events  []alert.Event
	end     streamView
}

// streamView is the part of a stream an interruption must carry across
// unchanged: the alarm ring with its timestamps, the anomalies, the alert
// numbering and the streamer's state, byte for byte.
type streamView struct {
	tick       int
	alarms     []Alarm
	anomalies  []core.Anomaly
	open       bool
	anomalySeq int
	openID     int
	state      []byte
}

func view(t *testing.T, m *Manager) streamView {
	t.Helper()
	st, err := m.acquire(scheduleID)
	if err != nil {
		t.Fatal(err)
	}
	defer st.mu.Unlock()
	var state bytes.Buffer
	if err := st.streamer.SaveState(&state); err != nil {
		t.Fatal(err)
	}
	return streamView{
		tick: st.tick, alarms: slices.Clone(st.alarms), anomalies: slices.Clone(st.anomalies),
		open: st.tracker.Open(), anomalySeq: st.anomalySeq, openID: st.openID, state: state.Bytes(),
	}
}

// sameAnomalies compares anomalies field by field. A snapshot round trip
// turns an empty slice into nil, which is the same anomaly.
func sameAnomalies(got, want []core.Anomaly) bool {
	return slices.EqualFunc(got, want, func(g, w core.Anomaly) bool {
		return slices.Equal(g.Sensors, w.Sensors) && slices.Equal(g.Onsets, w.Onsets) &&
			g.FirstRound == w.FirstRound && g.LastRound == w.LastRound &&
			g.Start == w.Start && g.End == w.End && g.Score == w.Score
	})
}

// sameView requires two views of the stream to be equal; stamped as for
// sameAlarms.
func sameView(t *testing.T, label string, got, want streamView, stamped bool) {
	t.Helper()
	sameAlarms(t, label+": alarms", got.alarms, want.alarms, stamped)
	if got.tick != want.tick || got.open != want.open || got.anomalySeq != want.anomalySeq ||
		got.openID != want.openID || !sameAnomalies(got.anomalies, want.anomalies) {
		t.Fatalf("%s: tick %d, open %v, anomaly seq %d, open id %d, anomalies %+v;\nwant tick %d, open %v, anomaly seq %d, open id %d, anomalies %+v",
			label, got.tick, got.open, got.anomalySeq, got.openID, got.anomalies,
			want.tick, want.open, want.anomalySeq, want.openID, want.anomalies)
	}
	if !bytes.Equal(got.state, want.state) {
		t.Fatalf("%s: streamer state differs", label)
	}
}

// schedule drives one stream through a seeded random sequence of steps.
// The current manager runs over its own fault-injecting filesystem in
// dir; a crash or a migration replaces it.
type schedule struct {
	t     *testing.T
	rng   *rand.Rand
	cols  [][]float64
	cfg   core.Config
	wal   bool
	bus   *alert.Bus
	sub   *alert.Subscription
	m     *Manager
	fault *faultfs.Fault
	dir   string
	tick  int
	// crashSpan bounds the armed crash budget: a few checkpoints' worth of
	// disk traffic.
	crashSpan int64
	run       scheduleRun
	// ran counts each step kind; whileOpen counts the interruptions that
	// landed while an anomaly was open. Shared by the schedules of a mode.
	ran, whileOpen map[string]int
}

// open starts a manager over dir, publishing into the schedule's bus.
func (s *schedule) open(dir string) {
	s.fault = faultfs.New(faultfs.OS())
	o := Options{FS: s.fault, Alerts: s.bus, Now: walClock()}
	if s.wal {
		o.WALDir, o.Fsync, o.CheckpointEvery = dir, FsyncNever, 32
	} else {
		o.SnapshotDir = dir
	}
	s.m, s.dir = New(o), dir
}

// drain collects the stream's alert events published since the last call.
// durability_degraded is the crash announcing itself, not a decision.
func (s *schedule) drain() []alert.Event {
	var out []alert.Event
	for _, ev := range collectEvents(s.sub) {
		if ev.Type != alert.TypeDurabilityDegraded {
			out = append(out, ev)
		}
	}
	return out
}

// ingest pushes the next batch of up to 12 columns, three rounds' worth.
func (s *schedule) ingest() {
	s.ran["ingest"]++
	hi := min(s.tick+1+s.rng.Intn(12), len(s.cols))
	res, err := s.m.IngestBatch(scheduleID, s.cols[s.tick:hi])
	if err != nil {
		s.t.Fatalf("ingest [%d,%d): %v", s.tick, hi, err)
	}
	s.run.reports = append(s.run.reports, res...)
	s.run.events = append(s.run.events, s.drain()...)
	s.tick = hi
}

// interrupted records an interruption step and whether it found an
// anomaly open.
func (s *schedule) interrupted(kind string, v streamView) {
	s.ran[kind]++
	if v.open {
		s.whileOpen[kind]++
	}
}

// evict snapshots the stream out of the registry and restores it.
func (s *schedule) evict() {
	before := view(s.t, s.m)
	if done, err := s.m.evict(s.m.residentStream(scheduleID), time.Time{}); err != nil || !done {
		s.t.Fatalf("evict at tick %d = %v, %v", s.tick, done, err)
	}
	if s.m.Len() != 0 {
		s.t.Fatalf("evict at tick %d: stream still resident", s.tick)
	}
	sameView(s.t, "evict/restore at tick "+strconv.Itoa(s.tick), view(s.t, s.m), before, true)
	s.interrupted("evict", before)
}

// migrate moves the stream to a second manager and deletes the source.
func (s *schedule) migrate() {
	before := view(s.t, s.m)
	exp, err := s.m.Export(scheduleID)
	if err != nil {
		s.t.Fatalf("export at tick %d: %v", s.tick, err)
	}
	if !s.wal && len(exp.Tail) != 0 {
		s.t.Fatalf("memory-only export carries %d tail records", len(exp.Tail))
	}
	src := s.m
	s.open(s.t.TempDir())
	if _, err := s.m.Import(exp); err != nil {
		s.t.Fatalf("import at tick %d: %v", s.tick, err)
	}
	if err := src.Delete(scheduleID); err != nil {
		s.t.Fatal(err)
	}
	if evs := s.drain(); len(evs) != 0 {
		s.t.Fatalf("import at tick %d re-emitted %d events: %+v", s.tick, len(evs), evs[0])
	}
	sameView(s.t, "export/import at tick "+strconv.Itoa(s.tick), view(s.t, s.m), before, true)
	s.interrupted("export", before)
}

// crash arms a random crash point, ingests until the disk dies (or the
// stream ends), recovers on a fresh manager over the same directory and
// rewinds the schedule to the recovered tick. The columns past it were
// lost with the process and are sent again, so the events and reports
// they produced are dropped here and produced anew. The budget is drawn
// log-uniformly: most crashes tear a WAL record of the next few columns,
// while an anomaly opened by them is still open, and the rest land
// anywhere in the next checkpoints, snapshot writes included.
func (s *schedule) crash() {
	s.fault.CrashAfterBytes(int64(math.Pow(float64(s.crashSpan), s.rng.Float64())))
	for !s.fault.Crashed() && s.tick < len(s.cols) {
		s.ingest()
	}
	pushed := s.tick
	pre := view(s.t, s.m).alarms
	if !s.checkpointed() {
		s.ran["crash before a checkpoint"]++
	}
	s.open(s.dir)
	if stats, err := s.m.Recover(); err != nil || stats.Recovered != 1 {
		s.t.Fatalf("recover after tick %d = %+v, %v", pushed, stats, err)
	}
	if evs := s.drain(); len(evs) != 0 {
		s.t.Fatalf("recovery re-emitted %d events: %+v", len(evs), evs[0])
	}
	v := view(s.t, s.m)
	if v.tick > pushed {
		s.t.Fatalf("recovered %d ticks but only %d were pushed", v.tick, pushed)
	}
	lost := func(a Alarm) bool { return a.Tick > v.tick }
	sameAlarms(s.t, "recovered alarms", v.alarms, slices.DeleteFunc(pre, lost), true)
	s.tick = v.tick
	s.run.reports = slices.DeleteFunc(s.run.reports, func(r IngestResult) bool { return r.Tick > v.tick })
	s.run.events = slices.DeleteFunc(s.run.events, func(ev alert.Event) bool { return ev.Tick > v.tick })
	s.interrupted("crash", v)
}

// checkpointed reports whether the stream has a snapshot on disk. Before
// its first checkpoint it has none, and recovery starts from the WAL's
// genesis record.
func (s *schedule) checkpointed() bool {
	_, err := os.Stat(filepath.Join(s.dir, "snapshots", scheduleID+snapSuffix))
	return !errors.Is(err, fs.ErrNotExist)
}

// drive runs one schedule to the end of the stream. interrupt is nil for
// the uninterrupted reference; early, when not nil, is the interruption
// drawn more often before the first checkpoint.
func (s *schedule) drive(interrupt []func(), early func()) scheduleRun {
	s.sub = s.bus.Subscribe(scheduleID, 4096)
	defer s.sub.Close()
	s.open(s.t.TempDir())
	if _, err := s.m.Create(scheduleID, len(s.cols[0]), s.cfg); err != nil {
		s.t.Fatal(err)
	}
	if s.wal {
		s.crashSpan = 4 * int64(len(sealedOf(s.t, s.m, scheduleID)))
	}
	for s.tick < len(s.cols) {
		s.ingest()
		if len(interrupt) == 0 || s.tick == len(s.cols) {
			continue
		}
		// Before the first checkpoint the stream's only base on disk is
		// its WAL's genesis record: crash there often, so recovery from
		// that record is compared too.
		if early != nil && !s.checkpointed() && s.rng.Float64() < 0.3 {
			early()
			continue
		}
		// Interrupt mostly while an anomaly is open: that is when the
		// tracker and the alert numbering carry state, and the corpus
		// anomalies stay open for one to three rounds.
		p := 0.08
		if _, open, _ := s.m.Anomalies(scheduleID, 1, 0); open {
			p = 0.6
		}
		if s.rng.Float64() < p {
			interrupt[s.rng.Intn(len(interrupt))]()
		}
	}
	s.run.end = view(s.t, s.m)
	return s.run
}

// scheduleFixture is the stream every schedule replays, a scenario-corpus
// fault (correlated-regime-shift) under RefreshEvery=8, and its
// uninterrupted reference run. CAD_SCHEDULE_SEED and CAD_SCHEDULE_ITERS
// pick the seed and the number of schedules per run; make crashtest pins
// them.
type scheduleFixture struct {
	seed  int64
	iters int
	cols  [][]float64
	cfg   core.Config
	want  scheduleRun
}

func newScheduleFixture(t *testing.T) *scheduleFixture {
	t.Helper()
	sc, ok := scenario.ByName("correlated-regime-shift")
	if !ok {
		t.Fatal("correlated-regime-shift scenario missing from the corpus")
	}
	inst, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	fx := &scheduleFixture{
		seed:  scheduleEnv("CAD_SCHEDULE_SEED", 1),
		iters: int(scheduleEnv("CAD_SCHEDULE_ITERS", 8)),
		cols:  make([][]float64, inst.Series.Len()),
		cfg:   scenario.BaseConfig(),
	}
	for p := range fx.cols {
		fx.cols[p] = make([]float64, inst.Series.Sensors())
		inst.Series.Column(p, fx.cols[p])
	}
	fx.cfg.RefreshEvery = 8
	fx.want = fx.schedule(t, rand.New(rand.NewSource(fx.seed)), false, map[string]int{}, nil).drive(nil, nil)
	if len(fx.want.end.alarms) == 0 || len(fx.want.end.anomalies) == 0 {
		t.Fatal("the reference run raised no alarm; the comparison would be vacuous")
	}
	return fx
}

func (fx *scheduleFixture) schedule(t *testing.T, rng *rand.Rand, wal bool, ran, whileOpen map[string]int) *schedule {
	return &schedule{t: t, rng: rng, cols: fx.cols, cfg: fx.cfg, wal: wal, bus: newTestBus(t),
		ran: ran, whileOpen: whileOpen}
}

// run drives the schedules of one mode, drawing interruptions from kinds
// ("evict", "export", "crash"), and compares each with the reference. It
// fails if a step kind never ran or never landed while an anomaly was
// open.
func (fx *scheduleFixture) run(t *testing.T, wal bool, kinds ...string) {
	rng := rand.New(rand.NewSource(fx.seed))
	ran, whileOpen := map[string]int{}, map[string]int{}
	for it := 0; it < fx.iters; it++ {
		s := fx.schedule(t, rng, wal, ran, whileOpen)
		steps := map[string]func(){"evict": s.evict, "export": s.migrate, "crash": s.crash}
		var interrupt []func()
		for _, k := range kinds {
			interrupt = append(interrupt, steps[k])
		}
		var early func()
		if slices.Contains(kinds, "crash") {
			early = s.crash
		}
		compareRuns(t, "schedule "+strconv.Itoa(it), s.drive(interrupt, early), fx.want)
	}
	for _, k := range append([]string{"ingest"}, kinds...) {
		if ran[k] == 0 {
			t.Errorf("no %s step ran", k)
		} else if k != "ingest" && whileOpen[k] == 0 {
			t.Errorf("no %s step landed while an anomaly was open (%d ran)", k, ran[k])
		}
	}
	if slices.Contains(kinds, "crash") && ran["crash before a checkpoint"] == 0 {
		t.Errorf("no crash landed before the first checkpoint, so no recovery started from a genesis record")
	}
	t.Logf("steps %v; while an anomaly was open %v", ran, whileOpen)
}

// TestFaultSchedule is the manager's model-based fault test. It streams
// the fixture through a seeded random schedule of steps — ingest batches
// of random length, evict then restore, crash at a random byte of disk
// traffic then Recover on a fresh manager, Export then Import into a
// second manager — once with a WAL and once snapshot-only (which has no
// crash step), and compares each run with the uninterrupted reference:
//   - round reports are bit-identical, and so is the streamer's final
//     state: RefreshEvery=8 puts many exact refreshes between the
//     interruptions, so the drifted sliding sums must survive verbatim and
//     each refresh must fire at the reference's rounds;
//   - the alarm ring and the anomalies equal the reference on every
//     decision field, and every interruption keeps the ring's timestamps;
//   - the alert events equal the reference's, replay and import re-emit
//     nothing, and anomaly ids are never reused.
func TestFaultSchedule(t *testing.T) {
	fx := newScheduleFixture(t)
	t.Run("wal", func(t *testing.T) { fx.run(t, true, "evict", "export", "crash") })
	t.Run("snapshot-only", func(t *testing.T) { fx.run(t, false, "evict", "export") })
}

// The tests below run the schedule with fewer kinds of interruption, so
// that a failure names the mechanism at fault.

// TestEvictRestoreRoundEquivalence: evict then restore through snapshots.
func TestEvictRestoreRoundEquivalence(t *testing.T) {
	newScheduleFixture(t).run(t, false, "evict")
}

// TestDurableEvictRestoreEquivalence: evict then restore with a WAL.
func TestDurableEvictRestoreEquivalence(t *testing.T) {
	newScheduleFixture(t).run(t, true, "evict")
}

// TestExportImportMemoryOnly: a snapshot-only export carries no tail.
func TestExportImportMemoryOnly(t *testing.T) {
	newScheduleFixture(t).run(t, false, "export")
}

// TestExportImportRoundEquivalence: export a snapshot and its WAL tail.
func TestExportImportRoundEquivalence(t *testing.T) {
	newScheduleFixture(t).run(t, true, "export")
}

// TestCrashRecoverEquivalence: crash at a random byte, then recover.
func TestCrashRecoverEquivalence(t *testing.T) {
	t.Run("incremental", func(t *testing.T) { newScheduleFixture(t).run(t, true, "crash") })
}

// TestAlertReplayMuted: recovery and import re-emit no alert event, and
// opened anomaly ids keep increasing across them.
func TestAlertReplayMuted(t *testing.T) {
	newScheduleFixture(t).run(t, true, "crash", "export")
}

// compareRuns checks a scheduled run against the uninterrupted reference.
func compareRuns(t *testing.T, label string, got, want scheduleRun) {
	t.Helper()
	if len(got.reports) != len(want.reports) {
		t.Fatalf("%s: %d columns, want %d", label, len(got.reports), len(want.reports))
	}
	for i := range want.reports {
		if !reflect.DeepEqual(got.reports[i], want.reports[i]) {
			t.Fatalf("%s: column %d differs:\n got %+v\nwant %+v", label, i, got.reports[i], want.reports[i])
		}
	}
	sameView(t, label+": end", got.end, want.end, false)
	if len(got.events) != len(want.events) {
		t.Fatalf("%s: %d events, want %d", label, len(got.events), len(want.events))
	}
	lastOpened := 0
	for i, w := range want.events {
		g := got.events[i]
		if g.Type != w.Type || g.AnomalyID != w.AnomalyID || g.Round != w.Round || g.Tick != w.Tick ||
			g.Score != w.Score || !slices.Equal(g.Sensors, w.Sensors) {
			t.Fatalf("%s: event %d differs:\n got %+v\nwant %+v", label, i, g, w)
		}
		if g.Type == alert.TypeAnomalyOpened {
			if g.AnomalyID <= lastOpened {
				t.Fatalf("%s: event %d reopens anomaly id %d after %d", label, i, g.AnomalyID, lastOpened)
			}
			lastOpened = g.AnomalyID
		}
	}
}
