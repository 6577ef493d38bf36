package manager

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"cad/internal/core"
	"cad/internal/wal"
)

// TailRecord is one WAL record shipped alongside a migration snapshot: a
// column appended after the snapshot's cursor.
type TailRecord struct {
	Seq  uint64
	Time time.Time
	Data []byte
}

// StreamExport is the migration bundle for one stream: a sealed snapshot
// (the exact gob + CRC32-C footer bytes writeSnapshot puts on disk) plus
// the WAL-tail records past its cursor. Import replays the tail with the
// routine crash recovery uses (replayTail), so a moved stream resumes on
// the receiving node in the state recovery would have reached.
type StreamExport struct {
	ID       string
	Snapshot []byte
	Tail     []TailRecord
}

// sealTo writes st's full persistent state to w as a sealed snapshot —
// the envelope header, the streamer section, and the 12-byte CRC32-C
// footer over both — and returns the bytes written. The CRC is computed as
// the bytes go through, so the snapshot is never held in memory; every
// caller gets the same bytes. Caller holds st.mu (or the stream is still
// private).
func sealTo(w io.Writer, st *stream) (int64, error) {
	var tracker bytes.Buffer
	if err := st.tracker.SaveState(&tracker); err != nil {
		return 0, err
	}
	env := persistedStream{
		Version:    streamSnapVersion,
		ID:         st.id,
		Tracker:    tracker.Bytes(),
		Tick:       st.tick,
		Rounds:     st.rounds,
		Alarms:     st.alarms,
		Anomalies:  st.anomalies,
		Created:    st.created,
		AnomalySeq: st.anomalySeq,
		OpenID:     st.openID,
	}
	cw := &crcWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(&env); err != nil {
		return cw.n, fmt.Errorf("manager: snapshot %s: %w", st.id, err)
	}
	if err := st.streamer.SaveState(cw); err != nil {
		return cw.n, err
	}
	footer := sealFooter(cw.crc)
	n, err := w.Write(footer[:])
	return cw.n + int64(n), err
}

// sealStream returns st's sealed snapshot in memory: the bytes
// writeSnapshot puts on disk. Caller holds st.mu.
func sealStream(st *stream) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := sealTo(&buf, st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeSealed validates a sealed snapshot (footer, gob, version) and
// returns its envelope, whose Streamer is the streamer section: nested in
// a version-2 envelope, and for version 3 the rest of the payload after
// the header, handed on as a subslice of raw without a copy.
func decodeSealed(raw []byte) (persistedStream, error) {
	var env persistedStream
	payload, err := checkFooter(raw)
	if err != nil {
		return env, err
	}
	// gob reads a bytes.Reader exactly up to the header's end.
	r := bytes.NewReader(payload)
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return env, fmt.Errorf("%w: %v", errCorruptSnapshot, err)
	}
	switch env.Version {
	case streamSnapNested:
	case streamSnapVersion:
		if env.Streamer != nil {
			return env, fmt.Errorf("%w: version-%d snapshot nests its streamer", errCorruptSnapshot, env.Version)
		}
		env.Streamer = payload[len(payload)-r.Len():]
	default:
		return env, fmt.Errorf("%w: snapshot version %d, want %d or %d", errCorruptSnapshot, env.Version, streamSnapNested, streamSnapVersion)
	}
	return env, nil
}

// buildStream reassembles a private stream from its envelope: detector,
// streamer, tracker, serving state, metrics observer. Not registered.
func (m *Manager) buildStream(env persistedStream) (*stream, error) {
	streamer, err := core.LoadStreamer(bytes.NewReader(env.Streamer))
	if err != nil {
		return nil, err
	}
	tracker, err := core.LoadTracker(bytes.NewReader(env.Tracker))
	if err != nil {
		return nil, err
	}
	st := &stream{
		id:         env.ID,
		det:        streamer.Detector(),
		streamer:   streamer,
		tracker:    tracker,
		tick:       env.Tick,
		rounds:     env.Rounds,
		alarms:     env.Alarms,
		anomalies:  env.Anomalies,
		maxAlarm:   m.opt.MaxAlarms,
		created:    env.Created,
		anomalySeq: env.AnomalySeq,
		openID:     env.OpenID,
	}
	st.lastUsed.Store(m.now().UnixNano())
	st.det.SetObserver(newDetectorMetrics(m.reg, env.ID))
	return st, nil
}

// Export captures the stream as a migration bundle, restoring it first if
// it was evicted. In durable mode the bundle is the on-disk checkpoint
// plus the live WAL tail — exactly what crash recovery would replay; in
// memory-only (or degraded) mode, or before the stream's first
// checkpoint, it is a fresh in-memory snapshot with an empty tail. The stream keeps serving here until the caller deletes it.
func (m *Manager) Export(id string) (StreamExport, error) {
	st, err := m.acquire(id)
	if err != nil {
		return StreamExport{}, err
	}
	defer st.mu.Unlock()
	exp := StreamExport{ID: id}
	if st.wal != nil {
		raw, rerr := m.fs.ReadFile(m.snapPath(id))
		if rerr == nil {
			if _, derr := decodeSealed(raw); derr == nil {
				exp.Snapshot = raw
				rerr = st.wal.Replay(func(rec wal.Record) error {
					data := make([]byte, len(rec.Data))
					copy(data, rec.Data)
					exp.Tail = append(exp.Tail, TailRecord{Seq: rec.Seq, Time: rec.Time, Data: data})
					return nil
				})
				if rerr == nil {
					return exp, nil
				}
			}
		}
		// The stream has no checkpoint yet (its base is the genesis
		// record), or the checkpoint or log was unreadable; fall through
		// to a fresh in-memory seal, which needs neither.
		exp.Tail = nil
	}
	data, err := sealStream(st)
	if err != nil {
		return StreamExport{}, err
	}
	exp.Snapshot = data
	return exp, nil
}

// Import registers a stream from a migration bundle: decode the sealed
// snapshot, replay the WAL tail through the regular apply path (muted —
// the source already emitted these transitions), and insert. Any stale
// on-disk state for the id on this node is discarded first; in durable
// mode the imported stream gets a fresh local checkpoint and WAL. Returns
// how many tail records were applied. ErrExists if the id is resident.
func (m *Manager) Import(exp StreamExport) (int, error) {
	if err := ValidateID(exp.ID); err != nil {
		return 0, err
	}
	if m.residentStream(exp.ID) != nil {
		return 0, fmt.Errorf("%w: %q", ErrExists, exp.ID)
	}
	env, err := decodeSealed(exp.Snapshot)
	if err != nil {
		return 0, fmt.Errorf("manager: import %s: %w", exp.ID, err)
	}
	if env.ID != exp.ID {
		return 0, fmt.Errorf("manager: import %s: bundle snapshot is for %q", exp.ID, env.ID)
	}
	st, err := m.buildStream(env)
	if err != nil {
		return 0, fmt.Errorf("manager: import %s: %w", exp.ID, err)
	}
	replayed, err := m.replayTail(st, func(apply func(wal.Record) error) error {
		for _, rec := range exp.Tail {
			if err := apply(wal.Record(rec)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("manager: import %s: tail: %w", exp.ID, err)
	}
	// The imported state supersedes anything this node held for the id
	// (Adopt semantics): clear stale files, then make it durable here.
	if m.opt.SnapshotDir != "" {
		_ = m.fs.Remove(m.snapPath(exp.ID))
	}
	if m.durable() {
		_ = m.fs.RemoveAll(m.walPath(exp.ID))
		m.initDurability(st)
	}
	if err := m.insert(st); err != nil {
		m.discard(st)
		return 0, err
	}
	return replayed, nil
}
