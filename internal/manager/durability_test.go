package manager

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cad/internal/faultfs"
	"cad/internal/obs"
)

// walClock returns a deterministic counter clock: each call is 1ns after
// the previous one, so two managers making the same sequence of clock calls
// see identical timestamps and recovered alarms compare bit-identical.
func walClock() func() time.Time {
	var n int64
	return func() time.Time {
		return time.Unix(0, atomic.AddInt64(&n, 1))
	}
}

// durableOptions returns manager options with write-ahead logging under
// dir and a deterministic clock.
func durableOptions(dir string) Options {
	return Options{
		WALDir:   dir,
		Fsync:    FsyncNever, // tests care about crash-point semantics, not disk latency
		Registry: obs.NewRegistry(),
		Now:      walClock(),
	}
}

// ingestAll pushes cols and returns the completed round reports.
func ingestAll(t *testing.T, m *Manager, id string, cols [][]float64) []IngestResult {
	t.Helper()
	results, err := m.IngestBatch(id, cols)
	if err != nil {
		t.Fatalf("IngestBatch(%s): %v", id, err)
	}
	return results
}

func TestRecoverAfterCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	cols := makeCols(11, 300)
	want := driveStreamer(t, cols)

	m1 := New(durableOptions(dir))
	if _, err := m1.Create("plant", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	got := roundsOf(ingestAll(t, m1, "plant", cols[:150]))
	// Abandon m1 without any shutdown hook — the WAL holds the tail.

	m2 := New(durableOptions(dir))
	stats, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Recovered != 1 || stats.Quarantined != 0 {
		t.Fatalf("RecoveryStats = %+v, want 1 recovered", stats)
	}
	if stats.Replayed == 0 {
		t.Fatal("Recover replayed no WAL records; the log was never written")
	}
	st, err := m2.Status("plant")
	if err != nil || st.Ticks != 150 {
		t.Fatalf("recovered Status = %+v, %v; want 150 ticks", st, err)
	}
	got = append(got, roundsOf(ingestAll(t, m2, "plant", cols[150:]))...)
	sameReports(t, "recovered run", got, want)
}

func TestRecoverMultipleStreams(t *testing.T) {
	dir := t.TempDir()
	m1 := New(durableOptions(dir))
	ticks := map[string]int{"a": 40, "b": 75, "c": 120}
	for id, n := range ticks {
		if _, err := m1.Create(id, 8, testConfig()); err != nil {
			t.Fatal(err)
		}
		ingestAll(t, m1, id, makeCols(int64(len(id)), n))
	}

	m2 := New(durableOptions(dir))
	stats, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Recovered != 3 {
		t.Fatalf("recovered %d streams, want 3 (%+v)", stats.Recovered, stats)
	}
	for id, n := range ticks {
		st, err := m2.Status(id)
		if err != nil || st.Ticks != n {
			t.Fatalf("Status(%s) = %+v, %v; want %d ticks", id, st, err, n)
		}
	}
	// Recover is idempotent: resident streams are skipped.
	stats, err = m2.Recover()
	if err != nil || stats.Recovered != 0 {
		t.Fatalf("second Recover = %+v, %v; want no-op", stats, err)
	}
}

// corruptSnapshot locates the stream's snapshot and damages it with fn.
func corruptSnapshot(t *testing.T, dir, id string, fn func([]byte) []byte) string {
	t.Helper()
	path := filepath.Join(dir, "snapshots", id+snapSuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCorruptSnapshotQuarantined(t *testing.T) {
	cases := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"bitflip", func(raw []byte) []byte {
			raw[len(raw)/2] ^= 0x01
			return raw
		}},
		{"truncated", func(raw []byte) []byte {
			return raw[:len(raw)/3]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// A created stream has no snapshot until its first checkpoint:
			// checkpoint after the first batch, then log a tail past it.
			o := durableOptions(dir)
			o.CheckpointEvery = 40
			m1 := New(o)
			if _, err := m1.Create("plant", 8, testConfig()); err != nil {
				t.Fatal(err)
			}
			cols := makeCols(7, 100)
			ingestAll(t, m1, "plant", cols[:90])
			ingestAll(t, m1, "plant", cols[90:])
			snapPath := corruptSnapshot(t, dir, "plant", tc.fn)

			m2 := New(durableOptions(dir))
			stats, err := m2.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if stats.Recovered != 0 || stats.Quarantined != 1 {
				t.Fatalf("RecoveryStats = %+v, want 1 quarantined", stats)
			}
			if _, err := os.Stat(snapPath + corruptSuffix); err != nil {
				t.Fatalf("snapshot not quarantined: %v", err)
			}
			if _, err := os.Stat(filepath.Join(dir, "plant"+corruptSuffix)); err != nil {
				t.Fatalf("orphan WAL not quarantined alongside: %v", err)
			}
			// The id is damaged, not poisoned: a fresh stream is creatable
			// and usable.
			if _, err := m2.Status("plant"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Status after quarantine = %v, want ErrNotFound", err)
			}
			if restored, err := m2.Create("plant", 8, testConfig()); err != nil || restored {
				t.Fatalf("recreate after quarantine = restored %v, %v", restored, err)
			}
			ingestAll(t, m2, "plant", makeCols(7, 30))
		})
	}
}

func TestDegradedOnWALFailure(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.New(faultfs.OS())
	o := durableOptions(dir)
	o.FS = fault
	m := New(o)
	if _, err := m.Create("plant", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	if degraded, _ := m.Degraded(); degraded {
		t.Fatal("degraded before any failure")
	}
	cols := makeCols(3, 120)
	ingestAll(t, m, "plant", cols[:40])

	// The disk fills up: ingest must keep working from memory.
	fault.FailWrites(syscall.ENOSPC)
	results := ingestAll(t, m, "plant", cols[40:80])
	if len(results) != 40 {
		t.Fatalf("ingest under ENOSPC returned %d results, want 40", len(results))
	}
	degraded, reason := m.Degraded()
	if !degraded || !strings.Contains(reason, "plant") {
		t.Fatalf("Degraded = %v, %q; want degraded with the stream named", degraded, reason)
	}
	if got := o.Registry.Gauge("cad_durability_degraded", "").Value(); got != 1 {
		t.Fatalf("cad_durability_degraded = %v, want 1", got)
	}

	// The disk recovering does not silently re-arm a half-lost WAL; the
	// manager stays memory-only (and honest about it) until a restart.
	fault.FailWrites(nil)
	ingestAll(t, m, "plant", cols[80:])
	if st, err := m.Status("plant"); err != nil || st.Ticks != 120 {
		t.Fatalf("Status = %+v, %v; want 120 ticks despite degradation", st, err)
	}
	if degraded, _ := m.Degraded(); !degraded {
		t.Fatal("degradation cleared without a restart")
	}
}

func TestDegradedOnFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.New(faultfs.OS())
	o := durableOptions(dir)
	o.Fsync = FsyncAlways
	o.FS = fault
	m := New(o)
	if _, err := m.Create("plant", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	fault.FailSyncs(syscall.EIO)
	ingestAll(t, m, "plant", makeCols(5, 20))
	if degraded, reason := m.Degraded(); !degraded || reason == "" {
		t.Fatalf("Degraded after fsync failure = %v, %q", degraded, reason)
	}
}

// flakyFS fails the first n OpenFile calls with ENOSPC, then forwards.
type flakyFS struct {
	faultfs.FS
	left atomic.Int64
}

func (f *flakyFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	if f.left.Add(-1) >= 0 {
		return nil, syscall.ENOSPC
	}
	return f.FS.OpenFile(name, flag, perm)
}

func TestSnapshotWriteRetries(t *testing.T) {
	flaky := &flakyFS{FS: faultfs.OS()}
	reg := obs.NewRegistry()
	m := New(Options{
		Capacity:          1,
		SnapshotDir:       t.TempDir(),
		FS:                flaky,
		Registry:          reg,
		Now:               walClock(),
		SnapshotRetryBase: time.Millisecond,
	})
	if _, err := m.Create("a", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	// Creating "b" evicts "a"; the first two snapshot attempts hit ENOSPC
	// and the third lands.
	flaky.left.Store(2)
	if _, err := m.Create("b", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cad_snapshot_retries_total", "").Value(); got != 2 {
		t.Fatalf("cad_snapshot_retries_total = %d, want 2", got)
	}
	// "a" must be restorable from the retried snapshot.
	if st, err := m.Status("a"); err != nil || st.Sensors != 8 {
		t.Fatalf("Status(a) after retried eviction = %+v, %v", st, err)
	}
}

func TestSnapshotRetriesExhaustedKeepsResident(t *testing.T) {
	flaky := &flakyFS{FS: faultfs.OS()}
	reg := obs.NewRegistry()
	m := New(Options{
		Capacity:          1,
		SnapshotDir:       t.TempDir(),
		FS:                flaky,
		Registry:          reg,
		Now:               walClock(),
		SnapshotRetryBase: time.Millisecond,
	})
	if _, err := m.Create("a", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, m, "a", makeCols(1, 35))
	flaky.left.Store(1 << 30) // every attempt fails
	if _, err := m.Create("b", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	flaky.left.Store(0)
	// Eviction failed, so "a" kept its full in-memory state.
	if st, err := m.Status("a"); err != nil || st.Ticks != 35 {
		t.Fatalf("Status(a) after failed eviction = %+v, %v; state was dropped", st, err)
	}
	if got := reg.Counter("cad_stream_snapshot_errors_total", "").Value(); got == 0 {
		t.Fatal("failed eviction not counted in cad_stream_snapshot_errors_total")
	}
}

func TestDeleteRemovesWAL(t *testing.T) {
	dir := t.TempDir()
	m := New(durableOptions(dir))
	if _, err := m.Create("plant", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, m, "plant", makeCols(9, 50))
	if err := m.Delete("plant"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "plant")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("WAL directory survives Delete: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshots", "plant"+snapSuffix)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot survives Delete: %v", err)
	}
	m2 := New(durableOptions(dir))
	if stats, err := m2.Recover(); err != nil || stats.Recovered != 0 {
		t.Fatalf("Recover after Delete = %+v, %v; want nothing", stats, err)
	}
}

func TestCheckpointFoldsWAL(t *testing.T) {
	dir := t.TempDir()
	o := durableOptions(dir)
	o.CheckpointEvery = 25
	m := New(o)
	if _, err := m.Create("plant", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, m, "plant", makeCols(13, 200))
	// 200 records at a checkpoint cadence of 25 leaves < 25 in the log.
	m2 := New(durableOptions(dir))
	stats, err := m2.Recover()
	if err != nil || stats.Recovered != 1 {
		t.Fatalf("Recover = %+v, %v", stats, err)
	}
	if stats.Replayed >= 25 {
		t.Fatalf("replayed %d records; checkpoints never folded the WAL", stats.Replayed)
	}
	if st, err := m2.Status("plant"); err != nil || st.Ticks != 200 {
		t.Fatalf("Status = %+v, %v; want 200 ticks", st, err)
	}
}

// encodeColumn packs a column as the WAL record payload logColumn writes.
func encodeColumn(col []float64) []byte {
	buf := make([]byte, 8*len(col))
	putColumn(buf, col)
	return buf
}

// FuzzDecodeColumn feeds decodeColumn arbitrary WAL payloads and arities.
// Either it refuses the input, or it returns exactly n readings that
// encodeColumn packs back into the same bytes, NaN payloads included.
func FuzzDecodeColumn(f *testing.F) {
	f.Add(encodeColumn([]float64{0, -1.5, math.Inf(1), math.NaN()}), 4)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, 1)
	f.Add([]byte{}, 0)
	f.Add([]byte{}, math.MaxInt/4+1) // 8*n wraps to 0
	f.Add(make([]byte, 16), -2)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		col, err := decodeColumn(data, n)
		if err != nil {
			return
		}
		if len(col) != n {
			t.Fatalf("decoded %d readings, want %d", len(col), n)
		}
		if !bytes.Equal(encodeColumn(col), data) {
			t.Fatal("decoded column does not re-encode to its payload")
		}
	})
}
