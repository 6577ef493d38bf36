package manager

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"cad/internal/core"
	"cad/internal/mts"
	"cad/internal/obs"
)

func testConfig() core.Config {
	return core.Config{
		Window: mts.Windowing{W: 30, S: 3}, K: 3, Tau: 0.4, Theta: 0.2,
		Eta: 3, SigmaFloor: 0.5, MinHistory: 8, RCMode: core.RCSliding, RCHorizon: 5,
	}
}

// column simulates one reading of 8 sensors in two correlated banks;
// sensors 0,1 decouple when broken.
func column(rng *rand.Rand, tick int, broken bool) []float64 {
	col := make([]float64, 8)
	a := math.Sin(2 * math.Pi * float64(tick) / 20)
	b := math.Cos(2 * math.Pi * float64(tick) / 33)
	for i := range col {
		latent := a
		if i >= 4 {
			latent = b
		}
		col[i] = latent*(1+0.2*float64(i%4)) + 0.04*rng.NormFloat64()
	}
	if broken {
		col[0] = rng.NormFloat64()
		col[1] = rng.NormFloat64()
	}
	return col
}

func TestValidateID(t *testing.T) {
	for _, id := range []string{"a", "plant-7", "A.B_c-9", "x" + string(make([]byte, 0))} {
		if err := ValidateID(id); err != nil {
			t.Errorf("ValidateID(%q) = %v", id, err)
		}
	}
	long := ""
	for i := 0; i < 65; i++ {
		long += "x"
	}
	for _, id := range []string{"", long, "has space", "slash/y", ".hidden", "-flag", "ütf8", "a\n"} {
		if err := ValidateID(id); !errors.Is(err, ErrBadID) {
			t.Errorf("ValidateID(%q) = %v, want ErrBadID", id, err)
		}
	}
}

func TestCreateGetDelete(t *testing.T) {
	m := New(Options{Capacity: 4})
	if restored, err := m.Create("a", 8, testConfig()); err != nil || restored {
		t.Fatalf("Create = %v, restored %v", err, restored)
	}
	if _, err := m.Create("a", 8, testConfig()); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Create = %v, want ErrExists", err)
	}
	st, err := m.Status("a")
	if err != nil || st.Sensors != 8 || st.Ticks != 0 {
		t.Errorf("Status = %+v, %v", st, err)
	}
	if _, err := m.Status("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Status(ghost) = %v, want ErrNotFound", err)
	}
	if _, err := m.Status("bad id"); !errors.Is(err, ErrBadID) {
		t.Errorf("Status(bad id) = %v, want ErrBadID", err)
	}
	if err := m.Delete("a"); err != nil {
		t.Fatalf("Delete = %v", err)
	}
	if err := m.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("second Delete = %v, want ErrNotFound", err)
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d after delete", m.Len())
	}
}

func TestCapacityWithoutSnapshots(t *testing.T) {
	m := New(Options{Capacity: 2})
	for _, id := range []string{"a", "b"} {
		if _, err := m.Create(id, 8, testConfig()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create("c", 8, testConfig()); !errors.Is(err, ErrCapacity) {
		t.Errorf("Create over capacity = %v, want ErrCapacity", err)
	}
}

func TestIngestValidation(t *testing.T) {
	m := New(Options{})
	if _, err := m.Create("a", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest("a", []float64{1, 2}); !errors.Is(err, ErrBadColumn) {
		t.Errorf("short column = %v, want ErrBadColumn", err)
	}
	if _, err := m.Ingest("a", []float64{0, 1, 2, math.NaN(), 4, 5, 6, 7}); !errors.Is(err, ErrBadColumn) {
		t.Errorf("NaN column = %v, want ErrBadColumn", err)
	}
	// A batch with one bad column must leave the stream untouched.
	good := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	if _, err := m.IngestBatch("a", [][]float64{good, {1}}); !errors.Is(err, ErrBadColumn) {
		t.Errorf("mixed batch = %v, want ErrBadColumn", err)
	}
	st, err := m.Status("a")
	if err != nil || st.Ticks != 0 {
		t.Errorf("ticks = %d after rejected batch, want 0 (%v)", st.Ticks, err)
	}
}

// driveStreamer replays cols through a bare core.Streamer and returns the
// completed round reports — the ground truth the manager must reproduce.
func driveStreamer(t *testing.T, cols [][]float64) []core.RoundReport {
	t.Helper()
	det, err := core.NewDetector(8, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewStreamer(det)
	var reps []core.RoundReport
	for _, col := range cols {
		rep, done, err := s.Push(col)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			reps = append(reps, rep)
		}
	}
	return reps
}

func makeCols(seed int64, ticks int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, ticks)
	for tick := range cols {
		cols[tick] = column(rng, tick, tick >= ticks/2 && tick < ticks*3/4)
	}
	return cols
}

func roundsOf(results []IngestResult) []core.RoundReport {
	var reps []core.RoundReport
	for _, r := range results {
		if r.RoundCompleted {
			reps = append(reps, r.Report)
		}
	}
	return reps
}

func sameReports(t *testing.T, label string, got, want []core.RoundReport) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rounds, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Abnormal != want[i].Abnormal || got[i].Variations != want[i].Variations ||
			got[i].Score != want[i].Score || !reflect.DeepEqual(got[i].Outliers, want[i].Outliers) {
			t.Fatalf("%s: round %d differs:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// TestLRUEvictionOnCapacity fills the registry past capacity and checks the
// least-recently-used stream is the one snapshotted.
func TestLRUEvictionOnCapacity(t *testing.T) {
	now := time.Unix(1000, 0)
	m := New(Options{Capacity: 2, SnapshotDir: t.TempDir(), Now: func() time.Time { return now }})
	if _, err := m.Create("old", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Minute)
	if _, err := m.Create("mid", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	// Touch "old" so "mid" becomes the LRU stream.
	now = now.Add(time.Minute)
	if _, err := m.Status("old"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Minute)
	if _, err := m.Create("new", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	if m.residentStream("mid") != nil {
		t.Error("expected mid evicted")
	}
	if m.residentStream("old") == nil || m.residentStream("new") == nil {
		t.Error("expected old and new resident")
	}
	infos := m.List()
	states := map[string]string{}
	for _, info := range infos {
		states[info.ID] = info.State
	}
	want := map[string]string{"old": "active", "new": "active", "mid": "snapshotted"}
	if !reflect.DeepEqual(states, want) {
		t.Errorf("List states = %v, want %v", states, want)
	}
	// Touching the evicted stream restores it (and evicts another).
	if _, err := m.Status("mid"); err != nil {
		t.Errorf("Status on evicted stream = %v", err)
	}
	if m.Registry().Counter("cad_stream_restores_total", "").Value() == 0 {
		t.Error("restore not counted")
	}
}

func TestSweepEvictsIdleStreams(t *testing.T) {
	now := time.Unix(1000, 0)
	m := New(Options{Capacity: 8, SnapshotDir: t.TempDir(), IdleTTL: time.Hour,
		Now: func() time.Time { return now }})
	for _, id := range []string{"a", "b"} {
		if _, err := m.Create(id, 8, testConfig()); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing is idle yet.
	if n := m.Sweep(); n != 0 {
		t.Errorf("early Sweep evicted %d", n)
	}
	now = now.Add(2 * time.Hour)
	// Touch "b" so only "a" is idle.
	if _, err := m.Status("b"); err != nil {
		t.Fatal(err)
	}
	if n := m.Sweep(); n != 1 {
		t.Errorf("Sweep evicted %d, want 1", n)
	}
	if m.residentStream("a") != nil {
		t.Error("idle stream still resident")
	}
	if m.residentStream("b") == nil {
		t.Error("busy stream was evicted")
	}
	// Sweep without TTL or snapshot dir is a no-op.
	if n := New(Options{}).Sweep(); n != 0 {
		t.Errorf("no-op Sweep = %d", n)
	}
}

func TestDeleteRemovesSnapshot(t *testing.T) {
	dir := t.TempDir()
	m := New(Options{Capacity: 4, SnapshotDir: dir})
	if _, err := m.Create("a", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	if done, err := m.evict(m.residentStream("a"), time.Time{}); err != nil || !done {
		t.Fatalf("evict = %v, %v", done, err)
	}
	if err := m.Delete("a"); err != nil {
		t.Fatalf("Delete of snapshotted stream = %v", err)
	}
	if _, err := m.Status("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Status after Delete = %v, want ErrNotFound", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("snapshot dir not empty after Delete: %v", entries)
	}
}

// TestCreateRestoresSnapshot proves Create on an id with a snapshot resumes
// the old stream instead of building a fresh detector.
func TestCreateRestoresSnapshot(t *testing.T) {
	m := New(Options{Capacity: 4, SnapshotDir: t.TempDir()})
	if _, err := m.Create("a", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	cols := makeCols(5, 90)
	if _, err := m.IngestBatch("a", cols); err != nil {
		t.Fatal(err)
	}
	if done, err := m.evict(m.residentStream("a"), time.Time{}); err != nil || !done {
		t.Fatalf("evict = %v, %v", done, err)
	}
	restored, err := m.Create("a", 3, core.Config{}) // sensors/cfg ignored on restore
	if err != nil || !restored {
		t.Fatalf("Create after evict = restored %v, %v", restored, err)
	}
	st, err := m.Status("a")
	if err != nil || st.Ticks != 90 || st.Sensors != 8 {
		t.Errorf("restored status = %+v, %v", st, err)
	}
}

// TestConcurrentStreams drives 8 streams from parallel goroutines while a
// janitor keeps evicting and a capacity squeeze forces restores; run under
// -race this is the locking proof. Every stream's rounds must stay
// bit-identical to an uninterrupted single-stream Streamer on the same
// columns.
func TestConcurrentStreams(t *testing.T) {
	const streams = 8
	const ticks = 300
	cols := make([][][]float64, streams)
	want := make([][]core.RoundReport, streams)
	for i := range cols {
		cols[i] = makeCols(int64(100+i), ticks)
		want[i] = driveStreamer(t, cols[i])
	}

	// Capacity below the stream count keeps eviction/restore churning in the
	// middle of the parallel ingest.
	m := New(Options{Capacity: 5, SnapshotDir: t.TempDir(), IdleTTL: time.Nanosecond,
		Registry: obs.NewRegistry()})
	for i := 0; i < streams; i++ {
		if _, err := m.Create(fmt.Sprintf("s%d", i), 8, testConfig()); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var janitor sync.WaitGroup
	janitor.Add(1)
	go func() {
		defer janitor.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Sweep()
			}
		}
	}()

	var wg sync.WaitGroup
	got := make([][]core.RoundReport, streams)
	errs := make([]error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", i)
			for _, col := range cols[i] {
				res, err := m.Ingest(id, col)
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", id, err)
					return
				}
				if res.RoundCompleted {
					got[i] = append(got[i], res.Report)
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	janitor.Wait()

	for i := 0; i < streams; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameReports(t, fmt.Sprintf("stream %d", i), got[i], want[i])
	}
	// The churn must have exercised the eviction path.
	if m.Registry().Counter("cad_stream_evictions_total", "").Value() == 0 {
		t.Error("no evictions during concurrent churn (janitor ineffective)")
	}
	if m.Registry().Counter("cad_stream_snapshot_errors_total", "").Value() != 0 {
		t.Error("snapshot writes failed during churn")
	}
}

// TestAlarmJSONSensors: an alarm without outliers is written as
// "sensors":[] and read back with nil sensors, as gob restores it; one with
// outliers round-trips unchanged.
func TestAlarmJSONSensors(t *testing.T) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for _, a := range []Alarm{
		{Round: 7, Tick: 40, Variations: 3, Score: 4.5, Time: at},
		{Round: 8, Tick: 43, Variations: 2, Score: 3.5, Sensors: []int{1, 4}, Time: at},
	} {
		raw, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		if string(fields["sensors"]) == "null" {
			t.Errorf("round %d: %s", a.Round, raw)
		}
		var back Alarm
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, a) {
			t.Errorf("round %d: %s decoded as %+v", a.Round, raw, back)
		}
	}
}
