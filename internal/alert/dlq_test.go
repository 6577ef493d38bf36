package alert

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"cad/internal/faultfs"
)

func TestDLQAppendDrainCycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dlq")
	d, err := OpenDLQ(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		rec := DeadLetter{Sink: "hook", Error: "status 500",
			Event: Event{Stream: "s", Type: TypeAlarm, Round: i, Time: time.Unix(int64(i), 0)}}
		if err := d.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen (a restart) — the backlog survives, counted correctly.
	d, err = OpenDLQ(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Len() != 3 {
		t.Fatalf("Len after reopen = %d, want 3", d.Len())
	}
	recs, bad, err := d.Drain()
	if err != nil || bad != 0 {
		t.Fatalf("Drain = (%d recs, %d bad, %v)", len(recs), bad, err)
	}
	if len(recs) != 3 || recs[0].Event.Round != 1 || recs[2].Event.Round != 3 {
		t.Fatalf("drained %d records in wrong order: %+v", len(recs), recs)
	}
	if recs[0].Sink != "hook" || recs[0].Error != "status 500" {
		t.Fatalf("record lost sink/error: %+v", recs[0])
	}
	// Exactly-once: a second drain, and a drain after reopen, are empty.
	if recs, _, _ := d.Drain(); len(recs) != 0 {
		t.Fatalf("second drain returned %d records", len(recs))
	}
	d.Close()
	d, err = OpenDLQ(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recs, _, _ := d.Drain(); len(recs) != 0 || d.Len() != 0 {
		t.Fatalf("drain after reopen returned %d records (len %d)", len(recs), d.Len())
	}
}

// TestDLQTornTail corrupts the final record on disk; the WAL framing must
// truncate it and hand back the intact prefix.
func TestDLQTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dlq")
	d, err := OpenDLQ(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := d.Append(DeadLetter{Sink: "hook", Event: Event{Round: i, Time: time.Unix(1, 0)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: chop bytes off the segment so the last frame is short.
	seg := filepath.Join(dir, "00000001.wal")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDLQ(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	recs, bad, err := d.Drain()
	if err != nil || bad != 0 {
		t.Fatalf("Drain after torn tail = (%v, %d bad)", err, bad)
	}
	if len(recs) != 1 || recs[0].Event.Round != 1 {
		t.Fatalf("torn-tail drain = %+v, want the first record only", recs)
	}
}

// TestDLQDiskFailure injects ENOSPC through the faultfs seam: the append
// fails loudly instead of silently losing the dead letter, and the bus
// keeps serving.
func TestDLQDiskFailure(t *testing.T) {
	fault := faultfs.New(faultfs.OS())
	dir := filepath.Join(t.TempDir(), "dlq")
	b, err := NewBus(Options{DLQDir: dir, FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sink := &recordingSink{}
	sink.setFail(syscall.ECONNREFUSED)
	cfg := SinkConfig{Retry: RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Millisecond, Jitter: -1}}
	if err := b.AddSink("rec", sink, cfg); err != nil {
		t.Fatal(err)
	}
	fault.FailWrites(syscall.ENOSPC)
	b.Publish(Event{Stream: "s", Type: TypeAlarm})
	waitFor(t, "dead-letter attempt", func() bool {
		return counterValue(b.reg, "cad_alerts_dead_lettered_total", "rec") == 1
	})
	// The append failed; nothing landed on disk and the bus still works.
	if n := b.DLQLen(); n != 0 {
		t.Fatalf("DLQ len = %d after ENOSPC, want 0", n)
	}
	fault.FailWrites(nil)
	sink.setFail(nil)
	b.Publish(Event{Stream: "s", Type: TypeAlarm})
	waitFor(t, "recovery delivery", func() bool {
		return counterValue(b.reg, "cad_alerts_delivered_total", "rec") == 1
	})
}

// dlqSegment returns the segment file a DLQ writes for recs, followed by
// one record whose payload is not a dead letter when garbage is set.
func dlqSegment(f *testing.F, recs int, garbage bool) []byte {
	dir := filepath.Join(f.TempDir(), "dlq")
	d, err := OpenDLQ(dir, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i := 1; i <= recs; i++ {
		if err := d.Append(DeadLetter{Sink: "hook", Error: "status 500",
			Event: Event{Stream: "s", Type: TypeAlarm, Round: i, Time: time.Unix(int64(i), 0)}}); err != nil {
			f.Fatal(err)
		}
	}
	if garbage {
		d.mu.Lock()
		d.seq++
		err = d.log.Append(d.seq, time.Unix(9, 0), []byte("{not a dead letter"))
		d.mu.Unlock()
		if err != nil {
			f.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "00000001.wal"))
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// noSync is the OS filesystem without fsync: the fuzz target checks the
// queue's bookkeeping, not durability, and fsync would dominate its time.
type noSync struct{ faultfs.FS }

type noSyncFile struct{ faultfs.File }

func (noSyncFile) Sync() error { return nil }

func (n noSync) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := n.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

// FuzzDLQDrain opens a DLQ over arbitrary segment bytes (one or two
// segments). OpenDLQ and Drain must not fail or panic; a drain hands out
// every record Len counted (decoded or counted bad) exactly once, a later
// drain returns only what was appended since, and a reopened DLQ is empty.
func FuzzDLQDrain(f *testing.F) {
	seg := dlqSegment(f, 3, false)
	bad := dlqSegment(f, 2, true)
	f.Add([]byte{}, []byte{})
	f.Add(seg, []byte{})
	f.Add(seg[:len(seg)-5], []byte{})
	f.Add(seg, bad)
	f.Add(bad, seg)
	f.Add([]byte("not a wal segment"), seg)
	fsys := noSync{faultfs.OS()}
	f.Fuzz(func(t *testing.T, seg1, seg2 []byte) {
		dir := t.TempDir()
		for i, seg := range [][]byte{seg1, seg2} {
			if len(seg) == 0 {
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%08d.wal", i+1)), seg, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, err := OpenDLQ(dir, fsys)
		if err != nil {
			t.Fatalf("OpenDLQ: %v", err)
		}
		n := d.Len()
		recs, badRecs, err := d.Drain()
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
		if len(recs)+badRecs != n {
			t.Fatalf("Drain = %d records + %d bad, Len was %d", len(recs), badRecs, n)
		}
		if d.Len() != 0 {
			t.Fatalf("Len = %d after Drain", d.Len())
		}
		marker := DeadLetter{Sink: "marker", Event: Event{Stream: "m", Type: TypeAlarm, Round: 7, Time: time.Unix(7, 0)}}
		if err := d.Append(marker); err != nil {
			t.Fatal(err)
		}
		again, badRecs, err := d.Drain()
		if err != nil || badRecs != 0 || len(again) != 1 || again[0].Sink != "marker" {
			t.Fatalf("drain after one append = %d records, %d bad, %v; want the one appended", len(again), badRecs, err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d, err = OpenDLQ(dir, fsys)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer d.Close()
		if d.Len() != 0 {
			t.Fatalf("reopened DLQ has Len %d", d.Len())
		}
		if recs, badRecs, err := d.Drain(); err != nil || len(recs)+badRecs != 0 {
			t.Fatalf("drain after reopen = %d records, %d bad, %v", len(recs), badRecs, err)
		}
	})
}
