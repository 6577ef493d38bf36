package core

import (
	"testing"

	"cad/internal/offheap"
	"cad/internal/stats"
)

// streamerBytes is what one streamer over n sensors and window w maps off
// the heap: its ring and its correlation triangle.
func streamerBytes(n, w int) int64 {
	return offheap.Size(n*w) + offheap.Size(stats.PackedLen(n))
}

// TestStreamerRelease maps one streamer's ring and triangle, runs a round,
// and releases them: the mapped bytes return at once, a second Release
// changes nothing, and a Push afterwards panics rather than touching freed
// memory.
func TestStreamerRelease(t *testing.T) {
	const n = 32
	cfg := wideConfig(64)
	cols := wideColumns(t, n, cfg.Window.W+cfg.Window.S)
	det, err := NewDetector(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	offheap.Settle()
	before := offheap.Bytes()
	sr := NewStreamer(det)
	if got, want := offheap.Bytes()-before, streamerBytes(n, cfg.Window.W); got != want {
		t.Fatalf("a streamer maps %d bytes, want %d", got, want)
	}
	pushCols(t, sr, cols)
	for range 2 {
		sr.Release()
		if got := offheap.Bytes(); got != before {
			t.Fatalf("%d bytes mapped after Release, want %d", got, before)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Push after Release did not panic")
		}
	}()
	_, _, _ = sr.Push(cols[0])
}

// TestStreamerFinalizerBackstop drops a streamer that was never released:
// its blocks' finalizers unmap them within a few collections.
func TestStreamerFinalizerBackstop(t *testing.T) {
	const n = 200
	cfg := wideConfig(64)
	cols := wideColumns(t, n, cfg.Window.W+cfg.Window.S)
	offheap.Settle()
	before := offheap.Bytes()
	func() {
		det, err := NewDetector(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pushCols(t, NewStreamer(det), cols)
	}()
	for range 4 {
		offheap.Settle()
		if offheap.Bytes() == before {
			return
		}
	}
	t.Fatalf("%d bytes still mapped four collections after dropping a streamer", offheap.Bytes()-before)
}

// pushCols pushes cols into sr, which must complete two rounds.
func pushCols(t *testing.T, sr *Streamer, cols [][]float64) {
	t.Helper()
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
	if rounds != 2 {
		t.Fatalf("%d rounds, want 2", rounds)
	}
}

// TestStreamerSaveStateLastUse saves a streamer whose last use is the
// SaveState call itself, into a writer that runs every due finalizer on
// each write, as a collection during the save could: the streamer must
// stay alive until its ring and sums are written, or the finalizers free
// them mid-write and the save faults.
func TestStreamerSaveStateLastUse(t *testing.T) {
	const n = 200
	cfg := wideConfig(64)
	det, err := NewDetector(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr := NewStreamer(det)
	pushCols(t, sr, wideColumns(t, n, cfg.Window.W+cfg.Window.S))
	if err := sr.SaveState(settleWriter{}); err != nil {
		t.Fatal(err)
	}
}

// settleWriter discards what it is given after running every finalizer
// that is due (offheap.Settle).
type settleWriter struct{}

func (settleWriter) Write(p []byte) (int, error) {
	offheap.Settle()
	return len(p), nil
}
