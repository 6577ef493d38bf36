package manager

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cad/internal/core"
	"cad/internal/faultfs"
	"cad/internal/mts"
	"cad/internal/obs"
)

// wideCols simulates ticks readings of n sensors in two interleaved
// correlated banks; sensors 0,1 decouple over the third quarter.
func wideCols(seed int64, n, ticks int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, ticks)
	for tick := range cols {
		a := math.Sin(2 * math.Pi * float64(tick) / 20)
		b := math.Cos(2 * math.Pi * float64(tick) / 33)
		col := make([]float64, n)
		for i := range col {
			latent := a
			if i%2 == 1 {
				latent = b
			}
			col[i] = latent*(1+0.2*float64(i%4)) + 0.04*rng.NormFloat64()
		}
		if tick >= ticks/2 && tick < ticks*3/4 {
			col[0] = rng.NormFloat64()
			col[1] = rng.NormFloat64()
		}
		cols[tick] = col
	}
	return cols
}

// seal appends the footer to a copy of payload, as sealTo does on the way.
func seal(payload []byte) []byte {
	footer := sealFooter(crc32.Checksum(payload, castagnoli))
	return append(slices.Clone(payload), footer[:]...)
}

// legacyStreamer carries the gob field names of core's streamer snapshot
// header (gob matches fields by name): enough to forge the versions 2 and
// 3, which kept the ring and the pair sums inside the header.
type legacyStreamer struct {
	Version    int
	Detector   []byte
	Ring       [][]float64
	Pos        int
	Filled     int
	Pending    int
	Started    bool
	Seq        uint64
	Base       int
	HasAcc     bool
	AccRef     []float64
	AccSX      []float64
	AccSXY     []float64
	AccSXYBits []byte
	AccCount   int
}

// asNestedEnvelope forges the sealed snapshot a version-2 envelope would
// hold for the same state of an exact stream over n sensors and window w:
// the streamer section is rewritten as a streamer snapshot of version
// streamerVersion (2 or 3) and nested in the envelope's Streamer field.
func asNestedEnvelope(t testing.TB, sealed []byte, n, w, streamerVersion int) []byte {
	t.Helper()
	env, err := decodeSealed(sealed)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(env.Streamer)
	var ls legacyStreamer
	if err := gob.NewDecoder(r).Decode(&ls); err != nil {
		t.Fatal(err)
	}
	rest := env.Streamer[len(env.Streamer)-r.Len():]
	want := 8 * n * w
	if ls.HasAcc {
		want += 8 * n * (n + 1) / 2
	}
	if ls.Version != 4 || len(rest) != want {
		t.Fatalf("streamer section: version %d, accumulator %v, %d section bytes", ls.Version, ls.HasAcc, len(rest))
	}
	float := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:])) }
	ls.Ring = make([][]float64, n)
	for i := range ls.Ring {
		ls.Ring[i] = make([]float64, w)
		for p := range ls.Ring[i] {
			ls.Ring[i][p] = float(i*w + p)
		}
	}
	tri := rest[8*n*w:]
	ls.Version = streamerVersion
	switch {
	case !ls.HasAcc:
		// A stream saved before its first round carries no pair sums.
	case streamerVersion == 3:
		ls.AccSXYBits = tri
	case streamerVersion == 2:
		// The full row-major n×n array; the lower half was never written.
		ls.AccSXY = make([]float64, n*n)
		k := n * w
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				ls.AccSXY[i*n+j] = float(k)
				k++
			}
		}
	default:
		t.Fatalf("cannot forge streamer version %d", streamerVersion)
	}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(&ls); err != nil {
		t.Fatal(err)
	}
	env.Version = streamSnapNested
	env.Streamer = blob.Bytes()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&env); err != nil {
		t.Fatal(err)
	}
	return seal(payload.Bytes())
}

// sealedOf seals the resident stream id of m.
func sealedOf(t testing.TB, m *Manager, id string) []byte {
	t.Helper()
	st := m.residentStream(id)
	if st == nil {
		t.Fatalf("%s not resident", id)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	raw, err := sealStream(st)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSnapshotLegacyEnvelope restores version-2 envelopes, which nest a
// version-3 or version-2 streamer snapshot, from disk and as a handoff
// bundle, and requires the rest of the stream to report exactly as an
// uninterrupted streamer does.
func TestSnapshotLegacyEnvelope(t *testing.T) {
	const cut = 131 // mid-window: not a round boundary of w=30, s=3
	cols := makeCols(17, 300)
	want := driveStreamer(t, cols)
	src := New(Options{})
	if _, err := src.Create("plant", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	head := roundsOf(ingestAll(t, src, "plant", cols[:cut]))
	sealed := sealedOf(t, src, "plant")
	for _, ver := range []int{3, 2} {
		t.Run(fmt.Sprintf("streamer-v%d", ver), func(t *testing.T) {
			legacy := asNestedEnvelope(t, sealed, 8, testConfig().Window.W, ver)
			if env, err := decodeSealed(legacy); err != nil || env.Version != streamSnapNested {
				t.Fatalf("forged envelope: version %d, %v", env.Version, err)
			}

			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "plant"+snapSuffix), legacy, 0o644); err != nil {
				t.Fatal(err)
			}
			restored := New(Options{SnapshotDir: dir})
			got := append(append([]core.RoundReport(nil), head...), roundsOf(ingestAll(t, restored, "plant", cols[cut:]))...)
			sameReports(t, "restored", got, want)

			imported := New(Options{})
			if _, err := imported.Import(StreamExport{ID: "plant", Snapshot: legacy}); err != nil {
				t.Fatal(err)
			}
			got = append(append([]core.RoundReport(nil), head...), roundsOf(ingestAll(t, imported, "plant", cols[cut:]))...)
			sameReports(t, "imported", got, want)
		})
	}
}

// TestSnapshotAllocGuard bounds what sealing an n=1000, w=64 stream with a
// full window allocates: the header, the detector and tracker blobs and
// the write buffers, not a copy of the 4 MB pair-sum triangle or the ring.
func TestSnapshotAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 1000-sensor stream")
	}
	const n, w, limit = 1000, 64, 1 << 20
	cfg := testConfig()
	cfg.Window = mts.Windowing{W: w, S: 4}
	m := New(Options{SnapshotDir: t.TempDir()})
	if _, err := m.Create("wide", n, cfg); err != nil {
		t.Fatal(err)
	}
	if rounds := roundsOf(ingestAll(t, m, "wide", wideCols(3, n, w))); len(rounds) != 1 {
		t.Fatalf("%d rounds, want 1: the window is not full", len(rounds))
	}
	st := m.residentStream("wide")
	st.mu.Lock()
	defer st.mu.Unlock()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := m.writeSnapshot(st)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	size := m.snapBytes.Value()
	t.Logf("writeSnapshot allocated %d bytes for a %d-byte snapshot", got, size)
	if got >= limit {
		t.Fatalf("writeSnapshot allocated %.2f MiB, want < 1 MiB", float64(got)/(1<<20))
	}
}

// midFileFS makes the next snapshot temp file it opens, once armed, fail
// its second Write halfway through: the first chunk has landed, the disk
// then fills up. Once that has fired, it records whether a later open of a
// temp file finds the failed attempt's file still there.
type midFileFS struct {
	faultfs.FS
	armed, fired, leftover atomic.Bool
}

func (f *midFileFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	isTmp := strings.HasSuffix(name, snapSuffix+snapTmpSuffix)
	if isTmp && f.fired.Load() {
		if _, err := f.FS.Stat(name); err == nil {
			f.leftover.Store(true)
		}
	}
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || !isTmp || !f.armed.CompareAndSwap(true, false) {
		return file, err
	}
	return &midFileFile{File: file, fired: &f.fired}, nil
}

type midFileFile struct {
	faultfs.File
	writes int
	fired  *atomic.Bool
}

func (f *midFileFile) Write(p []byte) (int, error) {
	f.writes++
	if f.writes < 2 {
		return f.File.Write(p)
	}
	f.fired.Store(true)
	n, _ := f.File.Write(p[:len(p)/2])
	return n, syscall.ENOSPC
}

// TestSnapshotMidFileWriteFailure evicts a stream whose snapshot spans
// several writes and fails the second one. The retry must land, leave no
// temp file behind, count in the snapshot metrics, and restore the stream
// bit-identically.
func TestSnapshotMidFileWriteFailure(t *testing.T) {
	const n, cut = 128, 101 // 128 sensors: a ~100 KB snapshot, several buffer flushes
	cfg := testConfig()
	cols := wideCols(5, n, 240)
	det, err := core.NewDetector(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewStreamer(det)
	var want []core.RoundReport
	for _, col := range cols {
		rep, done, err := ref.Push(col)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			want = append(want, rep)
		}
	}

	fsys := &midFileFS{FS: faultfs.OS()}
	reg := obs.NewRegistry()
	dir := t.TempDir()
	m := New(Options{
		Capacity:          1,
		SnapshotDir:       dir,
		FS:                fsys,
		Registry:          reg,
		Now:               walClock(),
		SnapshotRetryBase: time.Millisecond,
	})
	if _, err := m.Create("a", n, cfg); err != nil {
		t.Fatal(err)
	}
	got := roundsOf(ingestAll(t, m, "a", cols[:cut]))
	fsys.armed.Store(true)
	if _, err := m.Create("b", 8, cfg); err != nil { // evicts "a"
		t.Fatal(err)
	}
	if !fsys.fired.Load() {
		t.Fatal("the snapshot went out in a single Write; the mid-file failure never fired")
	}
	if got := reg.Counter("cad_snapshot_retries_total", "").Value(); got != 1 {
		t.Fatalf("cad_snapshot_retries_total = %d, want 1", got)
	}
	if fsys.leftover.Load() {
		t.Fatal("the failed attempt left its temp file for the retry to find")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+snapTmpSuffix)); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	if got := reg.Histogram("cad_snapshot_write_seconds", "", nil).Count(); got != 2 {
		t.Fatalf("cad_snapshot_write_seconds counted %d attempts, want 2", got)
	}
	info, err := os.Stat(filepath.Join(dir, "a"+snapSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cad_snapshot_bytes_total", "").Value(); got != uint64(info.Size()) {
		t.Fatalf("cad_snapshot_bytes_total = %d, want the file's %d", got, info.Size())
	}
	got = append(got, roundsOf(ingestAll(t, m, "a", cols[cut:]))...)
	sameReports(t, "restored after a mid-file failure", got, want)
}

// FuzzDecodeSealed feeds decodeSealed and buildStream sealed snapshots of
// both envelope versions, their truncations, and mutations resealed with
// a valid footer so parsing is reached. Each input is tried as given and
// with its last 12 bytes replaced by a valid footer, so every mutation of
// the payload reaches the parsers. They must return an error or a stream
// that keeps ingesting; they must never panic.
func FuzzDecodeSealed(f *testing.F) {
	cfg := testConfig()
	cols := makeCols(23, 120)
	for _, cut := range []int{0, 47, 100} {
		m := New(Options{})
		if _, err := m.Create("s", 8, cfg); err != nil {
			f.Fatal(err)
		}
		if cut > 0 {
			if _, err := m.IngestBatch("s", cols[:cut]); err != nil {
				f.Fatal(err)
			}
		}
		v3 := sealedOf(f, m, "s")
		v2 := asNestedEnvelope(f, v3, 8, cfg.Window.W, 3)
		for _, raw := range [][]byte{v3, v2} {
			f.Add(raw)
			f.Add(raw[:len(raw)/2])
			f.Add(raw[:len(raw)-1])
			payload := raw[:len(raw)-snapFooterSize]
			for _, at := range []int{len(payload) / 16, len(payload) / 3, len(payload) - 9} {
				mutated := slices.Clone(payload)
				mutated[at] ^= 0x5a
				f.Add(seal(mutated))
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkSealed(t, raw)
		if len(raw) >= snapFooterSize {
			checkSealed(t, seal(raw[:len(raw)-snapFooterSize]))
		}
	})
}

// checkSealed decodes raw and, if that succeeds, ingests two windows of
// columns into the stream it describes.
func checkSealed(t *testing.T, raw []byte) {
	env, err := decodeSealed(raw)
	if err != nil {
		return
	}
	m := New(Options{})
	st, err := m.buildStream(env)
	if err != nil {
		return
	}
	n, w := st.det.Sensors(), st.det.Config().Window.W
	rng := rand.New(rand.NewSource(1))
	col := make([]float64, n)
	for p := 0; p < 2*w; p++ {
		for i := range col {
			col[i] = rng.NormFloat64()
		}
		if _, err := m.applyColumn(st, col, time.Time{}); err != nil {
			t.Fatalf("decoded stream failed at push %d: %v", p, err)
		}
	}
}
