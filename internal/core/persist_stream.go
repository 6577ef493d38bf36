package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"cad/internal/mts"
	"cad/internal/stats"
)

// persistedStreamer is the gob wire format of a Streamer: the wrapped
// detector's full snapshot plus the trailing ring of raw columns, so a
// restored streamer completes its next round on exactly the same window a
// never-interrupted one would. Persisting the detector alone is not enough —
// the partial window between rounds lives only in the streamer.
type persistedStreamer struct {
	Version  int
	Detector []byte
	Ring     [][]float64
	Pos      int
	Filled   int
	Pending  int
	Started  bool
	Seq      uint64
	// Base offsets Seq into detector round coordinates for WindowEnd
	// stamping. Added after version 2 shipped; gob decodes it as zero from
	// older snapshots, which is correct for them (they predate warmed-up
	// streamer support for WindowEnd entirely).
	Base int
	// The incremental correlation accumulator, present iff the config is
	// exact (not ApproxTSG). The drifted live sums are persisted verbatim —
	// recomputing them on load would diverge from an uninterrupted run at
	// the last few ulps, breaking bit-identical replay. Snapshots written
	// when exact configs could still stream by batch recompute carry no
	// accumulator; LoadStreamer rebuilds it from Ring.
	HasAcc bool
	AccRef []float64
	AccSX  []float64
	// AccSXY is version 2's pair sums: the full row-major n×n array.
	AccSXY []float64
	// AccSXYBits is version 3's pair sums: the packed upper triangle
	// (stats.PackedLen(n) values) as little-endian IEEE-754 bits. gob
	// copies a byte slice in one piece, but codes a []float64 value by
	// value into a buffer that keeps regrowing: at n=1000 that allocated
	// several times the 4 MB triangle on every checkpoint.
	AccSXYBits []byte
	AccCount   int
}

// streamerPersistVersion is 3 since the pair sums are stored as the packed
// triangle in AccSXYBits. Version 2 (the full n×n AccSXY) still loads: its
// upper triangle is packed bit for bit. Version-1 snapshots predate
// write-ahead logging and are rejected rather than resumed with a replay
// cursor stuck at zero.
const streamerPersistVersion = 3

// streamerPersistFullSXY is the last version that stored the pair sums as
// the full n×n AccSXY.
const streamerPersistFullSXY = 2

// SaveState serializes the streamer — the detector snapshot plus the
// in-flight window state — so ingestion can resume mid-window after a
// restart or eviction with bit-identical round reports.
func (s *Streamer) SaveState(w io.Writer) error {
	var det bytes.Buffer
	if err := s.det.SaveState(&det); err != nil {
		return err
	}
	st := persistedStreamer{
		Version:  streamerPersistVersion,
		Detector: det.Bytes(),
		Ring:     s.ring,
		Pos:      s.pos,
		Filled:   s.filled,
		Pending:  s.pending,
		Started:  s.started,
		Seq:      s.seq,
		Base:     s.base,
	}
	if s.acc != nil {
		st.HasAcc = true
		var sxy []float64
		st.AccRef, st.AccSX, sxy, st.AccCount = s.acc.State()
		st.AccSXYBits = floatBits(sxy)
	}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("cad: save streamer: %w", err)
	}
	return nil
}

// LoadStreamer reconstructs a streamer from a Streamer.SaveState snapshot.
// The next Push continues exactly where the saved streamer stopped.
func LoadStreamer(r io.Reader) (*Streamer, error) {
	var st persistedStreamer
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("cad: load streamer: %w", err)
	}
	if st.Version != streamerPersistVersion && st.Version != streamerPersistFullSXY {
		return nil, fmt.Errorf("%w: streamer snapshot version %d, want %d or %d", ErrBadConfig, st.Version, streamerPersistFullSXY, streamerPersistVersion)
	}
	det, err := LoadDetector(bytes.NewReader(st.Detector))
	if err != nil {
		return nil, err
	}
	// Check the decoded shapes before NewStreamer sizes its buffers from
	// the detector, so a corrupt header cannot demand a huge allocation.
	n, w := det.Sensors(), det.cfg.Window.W
	if len(st.Ring) != n {
		return nil, fmt.Errorf("%w: streamer snapshot ring has %d sensors, want %d", ErrBadConfig, len(st.Ring), n)
	}
	for i := range st.Ring {
		if len(st.Ring[i]) != w {
			return nil, fmt.Errorf("%w: streamer snapshot window %d, want %d", ErrBadConfig, len(st.Ring[i]), w)
		}
		if !finite(st.Ring[i]) {
			return nil, fmt.Errorf("%w: streamer snapshot ring holds a non-finite reading", ErrBadConfig)
		}
	}
	if st.Filled < 0 || st.Filled > w || st.Pos < 0 || st.Pos >= w || (st.Filled < w && st.Pos != st.Filled) {
		return nil, fmt.Errorf("%w: streamer snapshot ring position %d with %d of %d columns filled", ErrBadConfig, st.Pos, st.Filled, w)
	}
	var sxy []float64
	if st.HasAcc {
		if det.cfg.ApproxTSG {
			return nil, fmt.Errorf("%w: streamer snapshot carries a correlation accumulator, but its config sets ApproxTSG", ErrBadConfig)
		}
		if st.Version == streamerPersistFullSXY {
			if len(st.AccSXY) != n*n {
				return nil, fmt.Errorf("%w: streamer snapshot pair sums have %d values, want %d", ErrBadConfig, len(st.AccSXY), n*n)
			}
			sxy = stats.PackUpper(st.AccSXY, n)
		} else {
			if len(st.AccSXYBits) != 8*stats.PackedLen(n) {
				return nil, fmt.Errorf("%w: streamer snapshot pair sums have %d bytes, want %d", ErrBadConfig, len(st.AccSXYBits), 8*stats.PackedLen(n))
			}
			sxy = bitsFloats(st.AccSXYBits)
		}
		if !finite(st.AccRef) || !finite(st.AccSX) || !finite(sxy) {
			return nil, fmt.Errorf("%w: streamer snapshot accumulator holds a non-finite sum", ErrBadConfig)
		}
	}
	s := NewStreamer(det)
	for i := range s.ring {
		copy(s.ring[i], st.Ring[i])
	}
	s.pos = st.Pos
	s.filled = st.Filled
	s.pending = st.Pending
	s.started = st.Started
	s.seq = st.Seq
	s.base = st.Base
	switch {
	case st.HasAcc:
		if !s.acc.SetState(st.AccRef, st.AccSX, sxy, st.AccCount) {
			return nil, fmt.Errorf("%w: streamer snapshot accumulator shape mismatch", ErrBadConfig)
		}
	case s.acc != nil:
		s.rebuildAcc()
	}
	return s, nil
}

// floatBits encodes xs as little-endian IEEE-754 bits, 8 bytes per value.
func floatBits(xs []float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
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

// finite reports whether every value is a finite number.
func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// rebuildAcc derives the correlation accumulator of a snapshot that was
// saved without one from the restored ring: a filling ring is pushed column
// by column, exactly as the live stream would have, and a full one is
// summed exactly in one refresh.
func (s *Streamer) rebuildAcc() {
	if s.filled == s.det.cfg.Window.W {
		s.acc.Refresh(s.chronological())
		return
	}
	for p := 0; p < s.filled; p++ {
		for i := range s.oldCol {
			s.oldCol[i] = s.ring[i][p]
		}
		s.acc.Push(s.oldCol)
	}
}

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
