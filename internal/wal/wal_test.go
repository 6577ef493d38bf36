package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cad/internal/faultfs"
)

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var recs []Record
	err := l.Replay(func(r Record) error {
		data := make([]byte, len(r.Data))
		copy(data, r.Data)
		r.Data = data
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := l.Append(uint64(i), time.Unix(0, int64(100+i)), []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	recs := collect(t, l2)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, r := range recs {
		want := Record{Seq: uint64(i + 1), Time: time.Unix(0, int64(101+i)), Data: []byte(fmt.Sprintf("rec-%d", i+1))}
		if r.Seq != want.Seq || !r.Time.Equal(want.Time) || !bytes.Equal(r.Data, want.Data) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
	}
	// Appends after a reopen continue the numbering on the same files.
	if err := l2.Append(6, time.Unix(0, 200), []byte("rec-6")); err != nil {
		t.Fatal(err)
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record overflows the threshold and rotates.
	l, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := l.Append(uint64(i), time.Unix(0, int64(i)), []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Three sealed segments plus the empty one rotation opened for the
	// next append.
	if len(entries) != 4 {
		t.Fatalf("%d segments on disk, want 4", len(entries))
	}
	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recs := collect(t, l2); len(recs) != 3 || recs[2].Seq != 3 {
		t.Fatalf("replay across segments = %+v", recs)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.New(faultfs.OS())
	l, err := Open(dir, Options{FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	frameSize := int64(headerSize + metaSize + len(payload))
	for i := 1; i <= 3; i++ {
		if err := l.Append(uint64(i), time.Unix(0, int64(i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Crash 5 bytes into the 4th record's frame.
	fault.CrashAfterBytes(5)
	if err := l.Append(4, time.Unix(0, 4), payload); err == nil {
		t.Fatal("append through the crash point succeeded")
	}
	seg := filepath.Join(dir, segName(1))
	if fi, err := os.Stat(seg); err != nil || fi.Size() != 3*frameSize+5 {
		t.Fatalf("pre-repair segment size = %v, %v; want %d", fi.Size(), err, 3*frameSize+5)
	}

	// A restarted process reopens over the real filesystem.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if fi, err := os.Stat(seg); err != nil || fi.Size() != 3*frameSize {
		t.Fatalf("post-repair segment size = %v, %v; want %d", fi.Size(), err, 3*frameSize)
	}
	recs := collect(t, l2)
	if len(recs) != 3 || recs[2].Seq != 3 {
		t.Fatalf("replay after torn tail = %d records (last %+v), want the 3 whole ones", len(recs), recs[len(recs)-1])
	}
	if got := l2.LastSeq(); got != 3 {
		t.Fatalf("LastSeq after repair = %d, want 3", got)
	}
}

func TestCorruptMiddleDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := l.Append(uint64(i), time.Unix(0, int64(i)), []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in segment 2: its record fails the checksum, so
	// segment 2 truncates to empty and segment 3 is dropped entirely.
	seg2 := filepath.Join(dir, segName(2))
	raw, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+metaSize] ^= 0xff
	if err := os.WriteFile(seg2, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collect(t, l2)
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("replay after mid-log corruption = %+v, want only record 1", recs)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(3))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("segment 3 still present after damage in segment 2: %v", err)
	}
}

func TestResetStartsEmptyKeepsNumbering(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 4; i++ {
		if err := l.Append(uint64(i), time.Unix(0, int64(i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, l); len(recs) != 0 {
		t.Fatalf("replay after Reset = %d records, want 0", len(recs))
	}
	if got := l.LastSeq(); got != 4 {
		t.Fatalf("LastSeq after Reset = %d, want 4", got)
	}
	if err := l.Append(5, time.Unix(0, 5), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, l); len(recs) != 1 || recs[0].Seq != 5 {
		t.Fatalf("replay after post-Reset append = %+v", recs)
	}
}

func TestSyncPolicies(t *testing.T) {
	appendN := func(l *Log, from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			if err := l.Append(uint64(i), time.Unix(0, int64(i)), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	fault := faultfs.New(faultfs.OS())
	l, err := Open(t.TempDir(), Options{FS: fault, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(l, 1, 3)
	// One fsync per append, plus one of the directory that gained the
	// fresh segment file.
	if got := fault.Syncs(); got != 4 {
		t.Fatalf("SyncAlways: %d fsyncs for 3 appends to a new log, want 4", got)
	}
	l.Close()

	// SyncNever leaves every fsync to the owner's Sync calls.
	fault = faultfs.New(faultfs.OS())
	l, err = Open(t.TempDir(), Options{FS: fault, Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(l, 1, 2)
	if got := fault.Syncs(); got != 0 {
		t.Fatalf("SyncNever: %d fsyncs before Sync, want 0", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fault.Syncs(); got != 2 {
		t.Fatalf("Sync of a new log's segment and directory = %d fsyncs, want 2", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fault.Syncs(); got != 2 {
		t.Fatalf("Sync with nothing outstanding made %d fsyncs", got-2)
	}
	// 25-byte frames rotate the 64-byte segments: three appends fill
	// segment 1 and rotate to segment 2, which stays empty. One Sync
	// covers the closed segment, the empty current one is clean, and the
	// directory gained segment 2.
	appendN(l, 3, 1)
	if got := fault.Syncs(); got != 2 {
		t.Fatalf("SyncNever: rotation made %d fsyncs", got-2)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fault.Syncs(); got != 4 {
		t.Fatalf("Sync after a rotation = %d fsyncs, want 2 (closed segment, directory)", got-2)
	}
	l.Close()

	fault = faultfs.New(faultfs.OS())
	l, err = Open(t.TempDir(), Options{FS: fault, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(l, 1, 3)
	l.Close()
	if got := fault.Syncs(); got != 0 {
		t.Fatalf("SyncNever without Sync: %d fsyncs, want 0", got)
	}
}

// TestHead: the head record lives beside the segments, not in them. It
// survives a reopen, Replay leaves it out, Sync covers it, and Reset
// discards it with every other record.
func TestHead(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.New(faultfs.OS())
	l, err := Open(dir, Options{FS: fault, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := l.Head(); ok || err != nil {
		t.Fatalf("Head of a new log = %v, %v; want none", ok, err)
	}
	if err := l.WriteHead(time.Unix(0, 7), []byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, time.Unix(0, 8), []byte("rec-1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fault.Syncs(); got != 3 {
		t.Fatalf("Sync after a head and an append = %d fsyncs, want 3 (head, segment, directory)", got)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if want := headerSize + metaSize + len("rec-1"); len(seg) != want {
		t.Fatalf("segment holds %d bytes, want %d: the appended record alone", len(seg), want)
	}
	l.Close()

	// Reopening cannot tell what the last process synced: the first Sync
	// covers the head, the segment and the directory again.
	l, err = Open(dir, Options{FS: fault, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	head, ok, err := l.Head()
	if err != nil || !ok || head.Seq != 0 || !head.Time.Equal(time.Unix(0, 7)) || string(head.Data) != "base" {
		t.Fatalf("Head after reopen = %+v, %v, %v", head, ok, err)
	}
	if recs := collect(t, l); len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("Replay = %+v, want the appended record alone", recs)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fault.Syncs(); got != 6 {
		t.Fatalf("first Sync after reopen = %d fsyncs, want 3", got-3)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := l.Head(); ok || err != nil {
		t.Fatalf("Head after Reset = %v, %v; want none", ok, err)
	}
	l.Close()

	// A torn head reads as none.
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteHead(time.Unix(0, 9), []byte("base")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(dir, headName)
	if err := os.Truncate(path, int64(headerSize+metaSize)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := l.Head(); ok || err != nil {
		t.Fatalf("Head of a torn head file = %v, %v; want none", ok, err)
	}
}

// TestAppendFuncReusesFrame checks that an append encodes in place: the
// frame buffer is allocated once, at the largest frame, and reused.
func TestAppendFuncReusesFrame(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	data := bytes.Repeat([]byte{7}, 512)
	fill := func(p []byte) { copy(p, data) }
	seq := uint64(0)
	allocs := testing.AllocsPerRun(50, func() {
		seq++
		if err := l.AppendFunc(seq, time.Unix(0, 1), len(data), fill); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendFunc allocates %v times per record, want 0", allocs)
	}
	recs := collect(t, l)
	if len(recs) != int(seq) || !bytes.Equal(recs[len(recs)-1].Data, data) {
		t.Fatalf("replayed %d records, want %d carrying the payload", len(recs), seq)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, time.Unix(0, 1), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}
