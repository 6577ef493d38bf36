package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"cad/internal/mts"
	"cad/internal/stats"
)

// unpackUpper expands a packed pair-sum triangle into the full row-major
// n×n array version-2 snapshots stored. The lower half stays zero: the old
// accumulator never wrote it.
func unpackUpper(packed []float64, n int) []float64 {
	full := make([]float64, n*n)
	off := 0
	for i := 0; i < n; i++ {
		copy(full[i*n+i:(i+1)*n], packed[off:off+n-i])
		off += n - i
	}
	return full
}

// floatBits encodes xs as little-endian IEEE-754 bits, 8 bytes per value:
// the layout of version 3's AccSXYBits and of version 4's raw sections.
func floatBits(xs []float64) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// bitsFloats decodes floatBits' encoding; len(b) must be a multiple of 8.
func bitsFloats(b []byte) []float64 {
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}

// asVersion3 forges the snapshot version 3 would have written for the same
// streamer state: rewriteSnapshot already presents the sections in version
// 3's fields.
func asVersion3(st *persistedStreamer) { st.Version = streamerPersistPackedBits }

// asVersion2 forges the snapshot version 2 would have written for the same
// streamer state.
func asVersion2(st *persistedStreamer) {
	st.Version = streamerPersistFullSXY
	if st.HasAcc {
		st.AccSXY = unpackUpper(bitsFloats(st.AccSXYBits), len(st.Ring))
	}
	st.AccSXYBits = nil
}

// pushRange pushes columns [from, to) of series and returns the completed
// rounds' reports.
func pushRange(t *testing.T, sr *Streamer, series *mts.MTS, from, to int) []RoundReport {
	t.Helper()
	return pushAll(t, sr, slice(t, series, from, to))
}

// TestLoadStreamerVersion2 restores forged version-2 snapshots — the full
// n×n pair-sum array — once mid-window and once on each side of an exact
// refresh, and requires reports bit-identical to an uninterrupted streamer.
func TestLoadStreamerVersion2(t *testing.T) { checkForgedRestore(t, asVersion2) }

// TestLoadStreamerVersion3 does the same for forged version-3 snapshots,
// whose ring and packed pair sums sit inside the gob header.
func TestLoadStreamerVersion3(t *testing.T) { checkForgedRestore(t, asVersion3) }

// checkForgedRestore saves a streamer at ticks 173, 71 and 72, forges each
// snapshot with forge, restores it, and requires the rest of the stream to
// report bit-identically to an uninterrupted streamer.
func checkForgedRestore(t *testing.T, forge func(*persistedStreamer)) {
	series := synth(31, 3, 4, 520, []int{2, 9}, 250, 360)
	mk := func() *Streamer {
		det, err := NewDetector(12, incConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		return NewStreamer(det)
	}
	want := pushAll(t, mk(), series)
	// w=40, s=4, RefreshEvery=8: round 8 completes, refreshing, at tick 72.
	for _, cut := range []int{173, 71, 72} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			sr := mk()
			got := pushRange(t, sr, series, 0, cut)
			var snap bytes.Buffer
			if err := sr.SaveState(&snap); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadStreamer(rewriteSnapshot(t, snap.Bytes(), forge))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, pushRange(t, restored, series, cut, series.Len())...)
			if len(got) != len(want) {
				t.Fatalf("%d rounds, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("round %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestLoadStreamerRejectsWrongSXYLength: each older version's pair sums
// must have that version's length.
func TestLoadStreamerRejectsWrongSXYLength(t *testing.T) {
	snap := smallSnapshot(t)
	for name, edit := range map[string]func(*persistedStreamer){
		"v3-full": func(st *persistedStreamer) {
			asVersion3(st)
			st.AccSXYBits = floatBits(unpackUpper(bitsFloats(st.AccSXYBits), 12))
		},
		"v3-short": func(st *persistedStreamer) {
			asVersion3(st)
			st.AccSXYBits = st.AccSXYBits[8:]
		},
		"v3-ragged": func(st *persistedStreamer) {
			asVersion3(st)
			st.AccSXYBits = st.AccSXYBits[:len(st.AccSXYBits)-1]
		},
		"v2-packed": func(st *persistedStreamer) {
			st.Version = streamerPersistFullSXY
			st.AccSXY = bitsFloats(st.AccSXYBits)
			st.AccSXYBits = nil
		},
	} {
		if _, err := LoadStreamer(rewriteSnapshot(t, snap, edit)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLoadStreamerRejectsBadSections: a version-4 snapshot's raw sections
// must hold exactly the ring and, iff the header says it has an
// accumulator, the triangle, every value finite, and its header must leave
// them out.
func TestLoadStreamerRejectsBadSections(t *testing.T) {
	snap := smallSnapshot(t)
	if _, err := LoadStreamer(rewriteSnapshot(t, snap, func(*persistedStreamer) {})); err != nil {
		t.Fatalf("unedited rewrite rejected: %v", err)
	}
	inf := floatBits([]float64{math.Inf(1)})
	for name, edit := range map[string]func(*persistedStreamer){
		"ring-short": func(st *persistedStreamer) { st.Ring[11] = st.Ring[11][:len(st.Ring[11])-1] },
		"sums-short": func(st *persistedStreamer) { st.AccSXYBits = st.AccSXYBits[:len(st.AccSXYBits)-8] },
		"sums-ragged": func(st *persistedStreamer) {
			st.AccSXYBits = st.AccSXYBits[:len(st.AccSXYBits)-1]
		},
		"sums-missing": func(st *persistedStreamer) { st.AccSXYBits = nil },
		// Without an accumulator (what an HNSW-built stream saved) the ring
		// is the only section, so pair sums after it are trailing bytes.
		"no-accumulator-with-sums": func(st *persistedStreamer) {
			st.HasAcc, st.AccRef, st.AccSX, st.AccCount = false, nil, nil, 0
		},
		"trailing": func(st *persistedStreamer) {
			st.AccSXYBits = append(slices.Clone(st.AccSXYBits), 0)
		},
		"ring-nan": func(st *persistedStreamer) { st.Ring[3][1] = math.NaN() },
		"sums-inf": func(st *persistedStreamer) {
			st.AccSXYBits = slices.Clone(st.AccSXYBits)
			copy(st.AccSXYBits[16:], inf)
		},
	} {
		if _, err := LoadStreamer(rewriteSnapshot(t, snap, edit)); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
	// A header that also carries a ring is not a version-4 header.
	var st persistedStreamer
	r := bytes.NewReader(snap)
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		t.Fatal(err)
	}
	st.Ring = [][]float64{{1}}
	var forged bytes.Buffer
	if err := gob.NewEncoder(&forged).Encode(&st); err != nil {
		t.Fatal(err)
	}
	forged.Write(snap[len(snap)-r.Len():])
	if _, err := LoadStreamer(&forged); !errors.Is(err, ErrBadConfig) {
		t.Errorf("header ring: err = %v, want ErrBadConfig", err)
	}
}

// smallSnapshot returns the snapshot of a 12-sensor streamer 50 columns
// in: three rounds run, so it carries the correlation sums.
func smallSnapshot(t *testing.T) []byte {
	t.Helper()
	det, err := NewDetector(12, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sr := NewStreamer(det)
	pushRange(t, sr, synth(3, 3, 4, 50, nil, -1, -1), 0, 50)
	var snap bytes.Buffer
	if err := sr.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Bytes()
}

// TestStreamerSnapshotSize saves an n=1000, w=64 stream one column short of
// its first round. The accumulator is still empty, so the snapshot is the
// ring and a header, under 1 MB, and the restored stream's first rounds
// report what the saved one's do, from the same sums bit for bit. It also
// compares the snapshot with the version-3 one of the same state.
func TestStreamerSnapshotSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1000-sensor snapshot")
	}
	const n, w = 1000, 64
	cfg := testConfig()
	cfg.Window = mts.Windowing{W: w, S: 4}
	det, err := NewDetector(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr := NewStreamer(det)
	rng := rand.New(rand.NewSource(1))
	cols := make([][]float64, w+cfg.Window.S)
	for p := range cols {
		cols[p] = make([]float64, n)
		for i := range cols[p] {
			cols[p][i] = rng.NormFloat64()
		}
	}
	for _, col := range cols[:w-1] { // fill all but the last column: no round runs
		if _, _, err := sr.Push(col); err != nil {
			t.Fatal(err)
		}
	}
	var v4 bytes.Buffer
	if err := sr.SaveState(&v4); err != nil {
		t.Fatal(err)
	}
	v3 := rewriteSnapshot(t, v4.Bytes(), asVersion3)
	t.Logf("snapshot bytes at n=%d, w=%d: v4 %d, v3 %d (%.1f%%)", n, w, v4.Len(), v3.Len(), 100*float64(v4.Len())/float64(v3.Len()))
	if v4.Len() >= 1<<20 {
		t.Fatalf("pre-start snapshot is %d bytes, want under 1 MB", v4.Len())
	}
	// gob codes a random reading in 9 bytes and the raw ring in 8, while
	// an empty slot costs 8 raw bytes against gob's 1: the filled slots
	// outweigh the empty column.
	if saved := v3.Len() - v4.Len(); saved < n*w/2 {
		t.Fatalf("v4 saves %d bytes over v3, want at least %d", saved, n*w/2)
	}
	if _, err := LoadStreamer(v3); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadStreamer(&v4)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for p, col := range cols[w-1:] {
		want, wok, werr := sr.Push(col)
		got, gok, gerr := restored.Push(col)
		if werr != nil || gerr != nil || gok != wok || !reflect.DeepEqual(got, want) {
			t.Fatalf("column %d: restored %+v %v %v, saved %+v %v %v", w+p, got, gok, gerr, want, wok, werr)
		}
		if gok {
			rounds++
		}
	}
	if rounds != 2 {
		t.Fatalf("%d rounds completed after the restore, want 2", rounds)
	}
	sameSums(t, restored.acc, sr.acc)
}

// sameSums fails unless two accumulators hold the same sums bit for bit.
func sameSums(t *testing.T, got, want *stats.SlidingCorr) {
	t.Helper()
	gr, gs, gp, gc := got.State()
	wr, ws, wp, wc := want.State()
	if gc != wc {
		t.Fatalf("count %d, want %d", gc, wc)
	}
	for _, p := range [][2][]float64{{gr, wr}, {gs, ws}, {gp, wp}} {
		for k := range p[1] {
			if math.Float64bits(p[0][k]) != math.Float64bits(p[1][k]) {
				t.Fatalf("sum %d is %v, want %v", k, p[0][k], p[1][k])
			}
		}
	}
	runtime.KeepAlive(got) // State's slices are freed with got and want
	runtime.KeepAlive(want)
}

// FuzzLoadStreamer feeds LoadStreamer valid version-2, version-3 and
// version-4 snapshots, their truncations and mutations. It must return an
// error or a streamer that keeps working; it must never panic.
func FuzzLoadStreamer(f *testing.F) {
	series := synth(5, 2, 3, 60, nil, -1, -1)
	cfg := testConfig()
	cfg.Window = mts.Windowing{W: 12, S: 3}
	cfg.HistoryHorizon = 16
	for _, cut := range []int{0, 7, 30} {
		det, err := NewDetector(6, cfg)
		if err != nil {
			f.Fatal(err)
		}
		sr := NewStreamer(det)
		if _, err := sr.PushSeries(slice(f, series, 0, cut)); err != nil {
			f.Fatal(err)
		}
		var snap bytes.Buffer
		if err := sr.SaveState(&snap); err != nil {
			f.Fatal(err)
		}
		v4 := snap.Bytes()
		v3 := rewriteSnapshot(f, v4, asVersion3).Bytes()
		v2 := rewriteSnapshot(f, v4, asVersion2).Bytes()
		for _, b := range [][]byte{v3, v2, v4} {
			f.Add(b)
			f.Add(b[:len(b)/2])
			f.Add(b[:len(b)-1])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := LoadStreamer(bytes.NewReader(data))
		if err != nil || sr.Detector().Sensors() != series.Sensors() {
			return
		}
		col := make([]float64, series.Sensors())
		for p := 0; p < 2*cfg.Window.W; p++ {
			series.Column(p, col)
			if _, _, err := sr.Push(col); err != nil {
				t.Fatalf("restored streamer failed at push %d: %v", p, err)
			}
		}
	})
}
