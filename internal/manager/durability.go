package manager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cad/internal/wal"
)

// syncPolicy maps the Options.Fsync knob onto the WAL's policy. Unknown
// values fall back to always — the safe default.
func (m *Manager) syncPolicy() wal.SyncPolicy {
	switch m.opt.Fsync {
	case FsyncNever:
		return wal.SyncNever
	case FsyncInterval:
		return wal.SyncInterval
	default:
		return wal.SyncAlways
	}
}

// fsyncOn reports whether snapshot writes should fsync. Snapshots are rare
// enough that only the "never" policy skips them.
func (m *Manager) fsyncOn() bool { return m.opt.Fsync != FsyncNever }

// openWAL opens (or creates) the stream's write-ahead log, repairing any
// torn tail left by a crash.
func (m *Manager) openWAL(id string) (*wal.Log, error) {
	return wal.Open(m.walPath(id), wal.Options{
		FS:           m.fs,
		SegmentBytes: m.opt.WALSegmentBytes,
		Sync:         m.syncPolicy(),
		SyncInterval: m.opt.FsyncInterval,
		Now:          m.now,
	})
}

// initDurability writes the stream's initial checkpoint and opens its WAL.
// The stream must not be shared yet (or its lock must be held). Failure
// degrades the manager to memory-only operation instead of propagating:
// losing durability must not lose availability.
func (m *Manager) initDurability(st *stream) {
	l, err := m.openWAL(st.id)
	if err != nil {
		m.walErrors.Inc()
		m.degrade(st.id, err)
		return
	}
	st.wal = l
	if err := m.writeSnapshotRetry(st); err != nil {
		// Without a base checkpoint the WAL alone cannot rebuild the
		// stream (it has no configuration), so degrade rather than leave
		// a log that recovery would have to quarantine.
		m.degrade(st.id, err)
		_ = st.wal.Close()
		st.wal = nil
	}
}

// dropDurability closes a private stream's WAL after a failed insert.
func (m *Manager) dropDurability(st *stream) {
	if st.wal != nil {
		_ = st.wal.Close()
		st.wal = nil
	}
}

// degrade records that durability was lost. Ingest keeps serving from
// memory; the gauge, /readyz and a one-shot durability_degraded alert
// surface the problem to the operator.
func (m *Manager) degrade(id string, err error) {
	m.mu.Lock()
	first := m.degradedReason == ""
	if first {
		m.degradedReason = fmt.Sprintf("stream %s: %v", id, err)
	}
	m.mu.Unlock()
	m.degraded.Store(true)
	m.degradedG.Set(1)
	if first {
		m.emitDegraded(id, err.Error())
	}
}

// encodeColumn packs one column as little-endian float64s — the WAL record
// payload.
func encodeColumn(col []float64) []byte {
	buf := make([]byte, 8*len(col))
	for i, v := range col {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// decodeColumn unpacks a WAL record payload into a column of n readings.
// The length is checked by division: 8*n overflows for a huge n.
func decodeColumn(data []byte, n int) ([]float64, error) {
	if len(data)%8 != 0 || len(data)/8 != n {
		return nil, fmt.Errorf("manager: wal record has %d bytes, want %d", len(data), 8*n)
	}
	col := make([]float64, n)
	for i := range col {
		col[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return col, nil
}

// logColumn appends col to the stream's WAL before it is applied, so a
// crash after this point cannot lose the column. A WAL failure degrades to
// memory-only operation; the ingest itself still succeeds. Caller holds
// st.mu.
func (m *Manager) logColumn(st *stream, t time.Time, col []float64) {
	if st.wal == nil {
		return
	}
	if err := st.wal.Append(st.streamer.Seq()+1, t, encodeColumn(col)); err != nil {
		m.walErrors.Inc()
		m.degrade(st.id, err)
		_ = st.wal.Close()
		st.wal = nil
		return
	}
	m.walAppends.Inc()
	st.walRecs++
}

// maybeCheckpoint folds the WAL into a fresh snapshot once enough records
// accumulated, bounding replay time after a crash. A failed checkpoint
// keeps the WAL — nothing is lost, the fold is retried after the next
// batch. Caller holds st.mu.
func (m *Manager) maybeCheckpoint(st *stream) {
	if st.wal == nil || st.walRecs < m.opt.CheckpointEvery {
		return
	}
	if err := m.writeSnapshotRetry(st); err != nil {
		m.snapFails.Inc()
		return
	}
	if err := st.wal.Reset(); err != nil {
		// Stale records below the snapshot's sequence number are skipped
		// on replay, so a failed reset costs disk space, not correctness.
		m.walErrors.Inc()
		m.degrade(st.id, err)
		_ = st.wal.Close()
		st.wal = nil
		return
	}
	st.walRecs = 0
}

// replayTail re-applies the logged columns past the stream's sequence
// cursor through the regular apply path, the one loop that crash recovery
// and migration share. records streams the log to its callback, oldest
// first, in the shape of wal.Log.Replay. Emission is muted: the run that
// logged these columns already published their transitions, and
// re-announcing a stream's whole anomaly history on every restart or move
// would drown real alerts. Returns how many columns were applied; a
// record that does not decode stops the replay with the state reached so
// far, a consistent prefix. The stream must still be private.
func (m *Manager) replayTail(st *stream, records func(func(wal.Record) error) error) (int, error) {
	base := st.streamer.Seq()
	sensors := st.det.Sensors()
	replayed := 0
	st.muted = true
	defer func() { st.muted = false }()
	err := records(func(rec wal.Record) error {
		if rec.Seq <= base {
			return nil // already covered by the snapshot
		}
		col, err := decodeColumn(rec.Data, sensors)
		if err != nil {
			return err
		}
		// Round-processing errors are deterministic: the logging run hit
		// the same error on the same column and carried on, so replay
		// does too.
		_, _ = m.applyColumn(st, col, rec.Time)
		replayed++
		return nil
	})
	return replayed, err
}

// replayWAL opens the stream's WAL and replays every record past the
// snapshot's sequence cursor, bringing the restored stream to the exact
// state of the crashed process. Returns the number of records replayed.
// The stream must still be private.
func (m *Manager) replayWAL(st *stream) (int, error) {
	l, err := m.openWAL(st.id)
	if err != nil {
		return 0, err
	}
	st.wal = l
	replayed, err := m.replayTail(st, l.Replay)
	m.walReplayed.Add(uint64(replayed))
	st.walRecs = replayed
	if err != nil {
		// A decode failure past the CRC check means the log cannot be
		// trusted beyond this point. The state reached so far is still a
		// consistent prefix; checkpoint it and fold the log.
		m.walErrors.Inc()
		if cerr := m.writeSnapshotRetry(st); cerr == nil {
			if rerr := st.wal.Reset(); rerr == nil {
				st.walRecs = 0
				return replayed, nil
			}
		}
		_ = st.wal.Close()
		st.wal = nil
		m.degrade(st.id, err)
	}
	return replayed, nil
}

// RecoveryStats summarizes a startup Recover pass.
type RecoveryStats struct {
	// Recovered streams were restored from disk (and are resident, or
	// were checkpointed back to disk when the registry overflowed).
	Recovered int
	// Replayed is the total WAL records applied on top of snapshots.
	Replayed int
	// Quarantined counts streams whose snapshot or WAL was damaged beyond
	// use; their files were renamed *.corrupt and the ids are recreatable.
	Quarantined int
}

// Recover scans the snapshot and WAL directories and restores every
// persisted stream: newest checkpoint first, then its WAL replayed through
// the streamer, yielding round reports bit-identical to a process that
// never crashed. Corrupt snapshots and torn WALs are quarantined, never
// fatal. Call it once on boot, before serving traffic. A no-op without a
// WAL directory.
func (m *Manager) Recover() (RecoveryStats, error) {
	var stats RecoveryStats
	if !m.durable() {
		return stats, nil
	}
	ids := map[string]bool{}
	if entries, err := m.fs.ReadDir(m.opt.SnapshotDir); err == nil {
		for _, e := range entries {
			if id, ok := idFromSnapName(e.Name()); ok {
				ids[id] = true
			}
		}
	}
	if entries, err := m.fs.ReadDir(m.opt.WALDir); err == nil {
		for _, e := range entries {
			// Skip quarantined logs and the snapshot directory, which
			// defaults to a subdirectory of the WAL directory.
			if !e.IsDir() || strings.HasSuffix(e.Name(), corruptSuffix) ||
				filepath.Join(m.opt.WALDir, e.Name()) == m.opt.SnapshotDir {
				continue
			}
			if ValidateID(e.Name()) == nil {
				ids[e.Name()] = true
			}
		}
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	for _, id := range sorted {
		if m.residentStream(id) != nil {
			continue
		}
		_, replayed, err := m.restore(id)
		switch {
		case err == nil:
			stats.Recovered++
			stats.Replayed += replayed
			m.recovered.Inc()
		case errors.Is(err, ErrNotFound):
			// The snapshot or WAL was damaged and has been quarantined;
			// the id can be recreated fresh.
			stats.Quarantined++
		default:
			return stats, fmt.Errorf("manager: recover %s: %w", id, err)
		}
	}
	return stats, nil
}
