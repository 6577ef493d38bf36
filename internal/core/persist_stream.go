package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"

	"cad/internal/mts"
	"cad/internal/stats"
)

// persistedStreamer is the gob header of a Streamer snapshot: the wrapped
// detector's full snapshot plus the small in-flight window state, so a
// restored streamer completes its next round on exactly the same window a
// never-interrupted one would. Persisting the detector alone is not enough —
// the partial window between rounds lives only in the streamer.
//
// Version 4 writes the header with everything small, then two raw sections
// of little-endian IEEE-754 float64s: the ring (n·w values, sensor-major)
// and, iff HasAcc, the packed pair-sum triangle (stats.PackedLen(n)
// values). The sections bypass gob, which codes a slice by copying it into
// a buffer that keeps regrowing: at n=1000 that allocated several times the
// 4 MB triangle on every checkpoint. Versions 2 and 3 kept the ring and the
// pair sums inside the header.
type persistedStreamer struct {
	Version  int
	Detector []byte
	// Ring is the ring of versions 2 and 3; version 4 writes it as the
	// first raw section.
	Ring    [][]float64
	Pos     int
	Filled  int
	Pending int
	Started bool
	Seq     uint64
	// Base offsets Seq into detector round coordinates for WindowEnd
	// stamping. Added after version 2 shipped; gob decodes it as zero from
	// older snapshots, which is correct for them (they predate warmed-up
	// streamer support for WindowEnd entirely).
	Base int
	// The incremental correlation accumulator. The drifted live sums are
	// persisted verbatim — recomputing them on load would diverge from an
	// uninterrupted run at the last few ulps, breaking bit-identical
	// replay. A streamer saves none before its first round. Started
	// snapshots without one — by streams that recomputed each round in
	// batch or built their TSGs with the retired HNSW index — get it
	// rebuilt from the ring by LoadStreamer, and restore as exact streams.
	HasAcc bool
	AccRef []float64
	AccSX  []float64
	// AccSXY is version 2's pair sums: the full row-major n×n array.
	AccSXY []float64
	// AccSXYBits is version 3's pair sums: the packed triangle as
	// little-endian IEEE-754 bits. Version 4 writes the triangle as the
	// second raw section.
	AccSXYBits []byte
	AccCount   int
}

// streamerPersistVersion is 4 since the ring and the pair sums follow the
// gob header as raw sections. Versions 2 (the full n×n AccSXY) and 3 (the
// packed AccSXYBits) still load bit for bit. Version-1 snapshots predate
// write-ahead logging and are rejected rather than resumed with a replay
// cursor stuck at zero.
const (
	streamerPersistVersion    = 4
	streamerPersistPackedBits = 3
	streamerPersistFullSXY    = 2
)

// sectionChunk is the size of the buffer the raw sections are coded
// through, so a snapshot never holds a second copy of the ring or the
// triangle. sectionBufs recycles the buffers across snapshots.
const sectionChunk = 32 << 10

var sectionBufs = sync.Pool{New: func() any { return new([sectionChunk]byte) }}

// SaveState serializes the streamer — the detector snapshot plus the
// in-flight window state — so ingestion can resume mid-window after a
// restart or eviction with bit-identical round reports. The ring and the
// correlation sums are streamed to w in fixed-size chunks. The slides of
// the columns pushed since the last round are applied to the sums first,
// so the bytes are those of a stream that slid every column in on arrival.
func (s *Streamer) SaveState(w io.Writer) error {
	var det bytes.Buffer
	if err := s.det.SaveState(&det); err != nil {
		return err
	}
	st := persistedStreamer{
		Version:  streamerPersistVersion,
		Detector: det.Bytes(),
		Pos:      s.pos,
		Filled:   s.filled,
		Pending:  s.pending,
		Started:  s.started,
		Seq:      s.seq,
		Base:     s.base,
		HasAcc:   s.started, // the sums are empty until the first round
	}
	var sxy []float64
	if st.HasAcc {
		// The snapshot holds the sums with every pushed column slid in,
		// whether or not a round has swept them yet.
		s.applyPending()
		st.AccRef, st.AccSX, sxy, st.AccCount = s.acc.State()
	}
	err := writeStreamerSnapshot(w, &st, s.ring, sxy)
	runtime.KeepAlive(s) // the ring and the sums are freed with s
	if err != nil {
		return fmt.Errorf("cad: save streamer: %w", err)
	}
	return nil
}

// writeStreamerSnapshot writes a version-4 snapshot: hdr, then the ring
// rows and the pair sums as raw sections.
func writeStreamerSnapshot(w io.Writer, hdr *persistedStreamer, ring [][]float64, sxy []float64) error {
	if err := gob.NewEncoder(w).Encode(hdr); err != nil {
		return err
	}
	buf := sectionBufs.Get().(*[sectionChunk]byte)
	defer sectionBufs.Put(buf)
	sw := sectionWriter{w: w, buf: buf[:0]}
	for _, row := range ring {
		sw.write(row)
	}
	sw.write(sxy)
	return sw.flush()
}

// sectionWriter codes float64s as little-endian bits through one
// fixed-size buffer. The first write error sticks and is reported by flush.
type sectionWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (sw *sectionWriter) write(xs []float64) {
	for _, x := range xs {
		if len(sw.buf) == cap(sw.buf) {
			sw.flush()
		}
		sw.buf = binary.LittleEndian.AppendUint64(sw.buf, math.Float64bits(x))
	}
}

func (sw *sectionWriter) flush() error {
	if sw.err == nil && len(sw.buf) > 0 {
		_, sw.err = sw.w.Write(sw.buf)
	}
	sw.buf = sw.buf[:0]
	return sw.err
}

// readSection decodes len(dst) little-endian float64s from r into dst,
// through buf (a multiple of 8 bytes long).
func readSection(r io.Reader, buf []byte, dst []float64) error {
	for len(dst) > 0 {
		chunk := buf[:8*min(len(dst), len(buf)/8)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return err
		}
		for i := 0; i < len(chunk); i += 8 {
			dst[i/8] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[i:]))
		}
		dst = dst[len(chunk)/8:]
	}
	return nil
}

// checkSections reports whether rem bytes are exactly the raw sections of
// a version-4 snapshot of n sensors and window w. It divides before it
// multiplies, so a corrupt window cannot overflow the expected size.
func checkSections(rem, n, w int, hasAcc bool) error {
	ok := n == 0 || w <= rem/8/n
	if ok {
		want := 8 * n * w
		if hasAcc {
			want += 8 * stats.PackedLen(n)
		}
		ok = want == rem
	}
	if !ok {
		return fmt.Errorf("%w: streamer snapshot sections hold %d bytes, not those of %d sensors over a %d-column window", ErrBadConfig, rem, n, w)
	}
	return nil
}

// snapshotReader is what LoadStreamer decodes from: gob reads a reader with
// ReadByte exactly up to the header's end, so the raw sections that follow
// are read from the same reader, and Len bounds them before anything is
// allocated. *bytes.Reader and *bytes.Buffer qualify.
type snapshotReader interface {
	io.Reader
	io.ByteReader
	Len() int
}

// LoadStreamer reconstructs a streamer from a Streamer.SaveState snapshot.
// The next Push continues exactly where the saved streamer stopped. A
// reader that does not report its remaining length is read to the end
// first.
func LoadStreamer(r io.Reader) (_ *Streamer, err error) {
	src, ok := r.(snapshotReader)
	if !ok {
		raw, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("cad: load streamer: %w", err)
		}
		src = bytes.NewReader(raw)
	}
	var st persistedStreamer
	if err := gob.NewDecoder(src).Decode(&st); err != nil {
		return nil, fmt.Errorf("cad: load streamer: %w", err)
	}
	if st.Version < streamerPersistFullSXY || st.Version > streamerPersistVersion {
		return nil, fmt.Errorf("%w: streamer snapshot version %d, want %d to %d", ErrBadConfig, st.Version, streamerPersistFullSXY, streamerPersistVersion)
	}
	det, err := LoadDetector(bytes.NewReader(st.Detector))
	if err != nil {
		return nil, err
	}
	// Check the decoded shapes before NewStreamer sizes its buffers from
	// the detector, so a corrupt header cannot demand a huge allocation.
	n, w := det.Sensors(), det.cfg.Window.W
	if err := st.check(n, w); err != nil {
		return nil, err
	}
	if st.Version == streamerPersistVersion {
		if err := checkSections(src.Len(), n, w, st.HasAcc); err != nil {
			return nil, err
		}
	}
	s := NewStreamer(det)
	defer func() {
		if err != nil {
			s.Release()
		}
	}()
	s.pos = st.Pos
	s.filled = st.Filled
	s.pending = st.Pending
	s.started = st.Started
	s.seq = st.Seq
	s.base = st.Base
	chunk := sectionBufs.Get().(*[sectionChunk]byte)
	defer sectionBufs.Put(chunk)
	buf := chunk[:]
	if st.Version == streamerPersistVersion {
		for _, row := range s.ring {
			if err := readSection(src, buf, row); err != nil {
				return nil, fmt.Errorf("%w: streamer snapshot ring: %v", ErrBadConfig, err)
			}
		}
	} else {
		for i := range s.ring {
			copy(s.ring[i], st.Ring[i])
		}
	}
	for _, row := range s.ring {
		if !finite(row) {
			return nil, fmt.Errorf("%w: streamer snapshot ring holds a non-finite reading", ErrBadConfig)
		}
	}
	switch {
	case st.HasAcc:
		// Decode the pair sums straight into the accumulator's triangle.
		ref, sx, sxy, _ := s.acc.State()
		copy(ref, st.AccRef)
		copy(sx, st.AccSX)
		switch st.Version {
		case streamerPersistFullSXY:
			copy(sxy, stats.PackUpper(st.AccSXY, n))
		case streamerPersistPackedBits:
			err = readSection(bytes.NewReader(st.AccSXYBits), buf, sxy)
		default:
			err = readSection(src, buf, sxy)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: streamer snapshot pair sums: %v", ErrBadConfig, err)
		}
		if !finite(ref) || !finite(sx) || !finite(sxy) {
			return nil, fmt.Errorf("%w: streamer snapshot accumulator holds a non-finite sum", ErrBadConfig)
		}
		if !s.acc.SetState(ref, sx, sxy, st.AccCount) {
			return nil, fmt.Errorf("%w: streamer snapshot accumulator shape mismatch", ErrBadConfig)
		}
	case s.started:
		// Saved without an accumulator: sum the full ring exactly.
		s.acc.Refresh(s.chronological())
	}
	return s, nil
}

// check validates the header against the detector's n sensors and window
// w: every in-header array has its version's length and the ring cursors
// lie inside the ring.
func (st *persistedStreamer) check(n, w int) error {
	if st.Version == streamerPersistVersion {
		if st.Ring != nil || st.AccSXY != nil || st.AccSXYBits != nil {
			return fmt.Errorf("%w: version-%d streamer snapshot header carries a ring or pair sums", ErrBadConfig, st.Version)
		}
	} else {
		if len(st.Ring) != n {
			return fmt.Errorf("%w: streamer snapshot ring has %d sensors, want %d", ErrBadConfig, len(st.Ring), n)
		}
		for i := range st.Ring {
			if len(st.Ring[i]) != w {
				return fmt.Errorf("%w: streamer snapshot window %d, want %d", ErrBadConfig, len(st.Ring[i]), w)
			}
		}
	}
	if st.Filled < 0 || st.Filled > w || st.Pos < 0 || st.Pos >= w || (st.Filled < w && st.Pos != st.Filled) {
		return fmt.Errorf("%w: streamer snapshot ring position %d with %d of %d columns filled", ErrBadConfig, st.Pos, st.Filled, w)
	}
	if !st.HasAcc {
		return nil
	}
	if len(st.AccRef) != n || len(st.AccSX) != n || st.AccCount < 0 || st.AccCount > w {
		return fmt.Errorf("%w: streamer snapshot accumulator shape mismatch", ErrBadConfig)
	}
	switch st.Version {
	case streamerPersistFullSXY:
		if len(st.AccSXY) != n*n {
			return fmt.Errorf("%w: streamer snapshot pair sums have %d values, want %d", ErrBadConfig, len(st.AccSXY), n*n)
		}
	case streamerPersistPackedBits:
		if len(st.AccSXYBits) != 8*stats.PackedLen(n) {
			return fmt.Errorf("%w: streamer snapshot pair sums have %d bytes, want %d", ErrBadConfig, len(st.AccSXYBits), 8*stats.PackedLen(n))
		}
	}
	return nil
}

// finite reports whether every value is a finite number.
func finite(xs []float64) bool { return !slices.ContainsFunc(xs, nonFinite) }

// nonFinite reports whether x is NaN or ±Inf.
func nonFinite(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }

// persistedTracker is the gob wire format of a Tracker: the windowing it
// maps rounds with, the open anomaly (if any) with its per-sensor onsets,
// and the completed-but-undrained queue.
type persistedTracker struct {
	Version      int
	W, S         int
	HasOpen      bool
	Open         Anomaly
	OnsetSensors []int
	OnsetRounds  []int
	Done         []Anomaly
	// Actual window ends of the open anomaly (see Tracker). Decoded as zero
	// from older snapshots, which finish() treats as "fall back to the
	// nominal round cadence".
	FirstEnd, LastEnd int
}

const trackerPersistVersion = 1

// SaveState serializes the tracker so anomaly assembly resumes across a
// restart without splitting an in-progress anomaly in two.
func (tr *Tracker) SaveState(w io.Writer) error {
	st := persistedTracker{
		Version: trackerPersistVersion,
		W:       tr.wd.W,
		S:       tr.wd.S,
		Done:    tr.done,
	}
	if tr.open != nil {
		st.HasOpen = true
		st.Open = *tr.open
		st.FirstEnd, st.LastEnd = tr.firstEnd, tr.lastEnd
		for v, r := range tr.onsets {
			st.OnsetSensors = append(st.OnsetSensors, v)
			st.OnsetRounds = append(st.OnsetRounds, r)
		}
	}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("cad: save tracker: %w", err)
	}
	return nil
}

// LoadTracker reconstructs a tracker from a Tracker.SaveState snapshot.
func LoadTracker(r io.Reader) (*Tracker, error) {
	var st persistedTracker
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("cad: load tracker: %w", err)
	}
	if st.Version != trackerPersistVersion {
		return nil, fmt.Errorf("%w: tracker snapshot version %d, want %d", ErrBadConfig, st.Version, trackerPersistVersion)
	}
	if len(st.OnsetSensors) != len(st.OnsetRounds) {
		return nil, fmt.Errorf("%w: tracker snapshot onsets mismatched (%d sensors, %d rounds)", ErrBadConfig, len(st.OnsetSensors), len(st.OnsetRounds))
	}
	tr := &Tracker{wd: mts.Windowing{W: st.W, S: st.S}, step: st.S, done: st.Done}
	if st.HasOpen {
		open := st.Open
		tr.open = &open
		tr.onsets = make(map[int]int, len(st.OnsetSensors))
		for i, v := range st.OnsetSensors {
			tr.onsets[v] = st.OnsetRounds[i]
		}
		tr.firstEnd, tr.lastEnd = st.FirstEnd, st.LastEnd
	}
	return tr, nil
}
