package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cad/internal/mts"
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

// asVersion2 forges the snapshot the previous format would have written for
// the same streamer state.
func asVersion2(st *persistedStreamer) {
	st.Version = streamerPersistFullSXY
	st.AccSXY = unpackUpper(bitsFloats(st.AccSXYBits), len(st.Ring))
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
func TestLoadStreamerVersion2(t *testing.T) {
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
			restored, err := LoadStreamer(rewriteSnapshot(t, snap.Bytes(), asVersion2))
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

// TestLoadStreamerRejectsWrongSXYLength: each version's pair sums must have
// that version's length.
func TestLoadStreamerRejectsWrongSXYLength(t *testing.T) {
	det, err := NewDetector(12, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sr := NewStreamer(det)
	pushRange(t, sr, synth(3, 3, 4, 10, nil, -1, -1), 0, 10)
	var snap bytes.Buffer
	if err := sr.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*persistedStreamer){
		"v3-full": func(st *persistedStreamer) {
			st.AccSXYBits = floatBits(unpackUpper(bitsFloats(st.AccSXYBits), 12))
		},
		"v3-short": func(st *persistedStreamer) { st.AccSXYBits = st.AccSXYBits[8:] },
		"v3-ragged": func(st *persistedStreamer) {
			st.AccSXYBits = st.AccSXYBits[:len(st.AccSXYBits)-1]
		},
		"v2-packed": func(st *persistedStreamer) {
			st.Version = streamerPersistFullSXY
			st.AccSXY = bitsFloats(st.AccSXYBits)
		},
	} {
		if _, err := LoadStreamer(rewriteSnapshot(t, snap.Bytes(), edit)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestStreamerSnapshotSize compares the version-3 snapshot of an n=1000,
// w=64 stream with the version-2 one of the same state, and reports both.
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
	col := make([]float64, n)
	for p := 0; p < w-1; p++ { // fill all but the last column: no round runs
		for i := range col {
			col[i] = rng.NormFloat64()
		}
		if _, _, err := sr.Push(col); err != nil {
			t.Fatal(err)
		}
	}
	var v3 bytes.Buffer
	if err := sr.SaveState(&v3); err != nil {
		t.Fatal(err)
	}
	v2 := rewriteSnapshot(t, v3.Bytes(), asVersion2)
	t.Logf("snapshot bytes at n=%d, w=%d: v3 %d, v2 %d (%.0f%%)", n, w, v3.Len(), v2.Len(), 100*float64(v3.Len())/float64(v2.Len()))
	// gob writes each of v2's never-used lower-half zeros in one byte, so
	// packing saves about n²/2 bytes, not half the file.
	if saved := v2.Len() - v3.Len(); saved < n*(n-1)/2 {
		t.Fatalf("v3 saves %d bytes over v2, want at least %d", saved, n*(n-1)/2)
	}
	if _, err := LoadStreamer(v2); err != nil {
		t.Fatal(err)
	}
}

// FuzzLoadStreamer feeds LoadStreamer valid version-2 and version-3
// snapshots, their truncations and mutations. It must return an error or a
// streamer that keeps working; it must never panic.
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
		v3 := snap.Bytes()
		v2 := rewriteSnapshot(f, v3, asVersion2).Bytes()
		for _, b := range [][]byte{v3, v2} {
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
