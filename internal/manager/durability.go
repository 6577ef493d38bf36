package manager

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cad/internal/core"
	"cad/internal/wal"
)

// syncPolicy maps the Options.Fsync knob onto the WAL's policy: a log
// syncs each append under "always" and leaves syncing to Flush under
// "interval". Unknown values fall back to always — the safe default.
func (m *Manager) syncPolicy() wal.SyncPolicy {
	switch m.opt.Fsync {
	case FsyncNever, FsyncInterval:
		return wal.SyncNever
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
	})
}

// createWAL opens a new stream's WAL and makes the new stream directory's
// entry durable per the policy: before returning under "always", at the
// next Flush under "interval".
func (m *Manager) createWAL(id string) (*wal.Log, error) {
	l, err := m.openWAL(id)
	if err != nil {
		return nil, err
	}
	switch {
	case m.opt.Fsync == FsyncInterval:
		m.walDirDirty.Store(true)
	case m.syncPolicy() == wal.SyncAlways:
		if err := m.syncDir(m.opt.WALDir); err != nil {
			_ = l.Close()
			return nil, fmt.Errorf("manager: sync %s: %w", m.opt.WALDir, err)
		}
	}
	return l, nil
}

// genesis is the payload of a created stream's WAL head record, which
// carries sequence number 0 and the creation time: what Create was given.
// Until its first checkpoint a created stream has no snapshot, and
// recovery rebuilds it from this record and the columns logged after it.
// A checkpoint folds the log, and the record with it.
type genesis struct {
	ID      string      `json:"id"`
	Sensors int         `json:"sensors"`
	Config  core.Config `json:"config"`
}

// decodeGenesis parses and validates a genesis record's payload. Unknown
// fields are refused, as they are in a config.
func decodeGenesis(data []byte) (genesis, error) {
	var g genesis
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return g, fmt.Errorf("manager: genesis record: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return g, errors.New("manager: genesis record: trailing data")
	}
	if err := ValidateID(g.ID); err != nil {
		return g, fmt.Errorf("manager: genesis record: %w", err)
	}
	if err := g.Config.Validate(g.Sensors); err != nil {
		return g, fmt.Errorf("manager: genesis record: %w", err)
	}
	return g, nil
}

// genesisStream rebuilds the private stream for id from its WAL's genesis
// record, leaving the log open on st.wal for replayWAL. A log without a
// decodable genesis record for id cannot rebuild anything, so it is
// quarantined and the id reports a clean miss, as does an id with no log.
func (m *Manager) genesisStream(id string) (*stream, error) {
	if _, err := m.fs.Stat(m.walPath(id)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		return nil, fmt.Errorf("manager: restore %s: %w", id, err)
	}
	l, err := m.openWAL(id)
	if err != nil {
		return nil, err
	}
	head, ok, err := l.Head()
	if err != nil {
		_ = l.Close()
		return nil, fmt.Errorf("manager: restore %s: %w", id, err)
	}
	var det *core.Detector
	if !ok {
		err = errors.New("manager: no genesis record")
	} else if g, gerr := decodeGenesis(head.Data); gerr != nil {
		err = gerr
	} else if g.ID != id {
		err = fmt.Errorf("manager: genesis record of %q", g.ID)
	} else {
		det, err = core.NewDetector(g.Sensors, g.Config)
	}
	if err != nil {
		_ = l.Close()
		m.quarantine(m.walPath(id))
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	st := m.newStream(id, det)
	st.created = head.Time
	st.wal = l
	return st, nil
}

// initDurability writes the stream's initial checkpoint and opens its WAL:
// the base of a stream adopted or imported with state of its own. The
// stream must not be shared yet (or its lock must be held). Failure
// degrades the manager to memory-only operation instead of propagating:
// losing durability must not lose availability.
func (m *Manager) initDurability(st *stream) {
	l, err := m.createWAL(st.id)
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

// initGenesis opens a created stream's WAL and writes its genesis record
// as the log's head, the base recovery rebuilds the stream from until its
// first checkpoint. The stream must not be shared yet. Failure degrades,
// as in initDurability.
func (m *Manager) initGenesis(st *stream, sensors int, cfg core.Config) {
	data, err := json.Marshal(genesis{ID: st.id, Sensors: sensors, Config: cfg})
	if err != nil {
		m.degrade(st.id, err)
		return
	}
	l, err := m.createWAL(st.id)
	if err == nil {
		st.wal = l
		err = l.WriteHead(st.created, data)
	}
	if err != nil {
		m.walFailed(st, err)
	}
}

// walFailed degrades a stream whose WAL failed to memory-only operation.
// Caller holds st.mu (or the stream is still private).
func (m *Manager) walFailed(st *stream, err error) {
	m.walErrors.Inc()
	m.degrade(st.id, err)
	if st.wal != nil {
		_ = st.wal.Close()
		st.wal = nil
	}
}

// discard drops a private stream after a failed insert: it closes the
// stream's WAL and releases its streamer.
func (m *Manager) discard(st *stream) {
	if st.wal != nil {
		_ = st.wal.Close()
		st.wal = nil
	}
	st.streamer.Release()
}

// degrade records that durability was lost. Ingest keeps serving from
// memory; the gauge, /readyz and a one-shot durability_degraded alert
// surface the problem to the operator.
func (m *Manager) degrade(id string, err error) {
	m.mu.Lock()
	first := m.degradedReason == ""
	if first {
		m.degradedReason = fmt.Sprintf("stream %s: %v", id, err)
		if id == "" {
			m.degradedReason = err.Error()
		}
	}
	m.mu.Unlock()
	m.degraded.Store(true)
	m.degradedG.Set(1)
	if first {
		m.emitDegraded(id, err.Error())
	}
}

// putColumn packs one column into dst as little-endian float64s — the WAL
// record payload.
func putColumn(dst []byte, col []float64) {
	for i, v := range col {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
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
	err := st.wal.AppendFunc(st.streamer.Seq()+1, t, 8*len(col), func(p []byte) { putColumn(p, col) })
	if err != nil {
		m.walFailed(st, err)
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
		m.walFailed(st, err)
		return
	}
	st.walRecs = 0
}

// Flush makes every column acknowledged so far, and every stream created
// or recovered so far, durable under the "interval" policy, where appends
// and creates never fsync. Under each resident stream's lock it fsyncs the
// stream's unsynced WAL files, and the stream's directory once it gained
// a file; then it fsyncs the WAL directory if it gained a stream
// directory. A failed fsync degrades the stream to memory-only operation,
// as a failed append does. Each pass is timed into cad_wal_flush_seconds.
// A no-op under the other policies, whose logs sync every append or
// never.
func (m *Manager) Flush() {
	if !m.durable() || m.opt.Fsync != FsyncInterval {
		return
	}
	start := time.Now()
	defer func() { m.walFlush.Observe(time.Since(start).Seconds()) }()
	m.mu.Lock()
	resident := make([]*stream, 0, len(m.streams))
	for _, st := range m.streams {
		resident = append(resident, st)
	}
	m.mu.Unlock()
	for _, st := range resident {
		st.mu.Lock()
		if st.wal != nil {
			if err := st.wal.Sync(); err != nil {
				m.walFailed(st, err)
			}
		}
		st.mu.Unlock()
	}
	// Clear the mark before syncing: a directory created meanwhile marks
	// it again for the next pass.
	if m.walDirDirty.Swap(false) {
		if err := m.syncDir(m.opt.WALDir); err != nil {
			m.walErrors.Inc()
			m.degrade("", fmt.Errorf("manager: sync %s: %w", m.opt.WALDir, err))
		}
	}
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

// replayWAL opens the stream's WAL, unless its genesis record already
// did, and replays every record past the snapshot's sequence cursor,
// bringing the restored stream to the exact state of the crashed process.
// Returns the number of records replayed. The stream must still be
// private.
func (m *Manager) replayWAL(st *stream) (int, error) {
	if st.wal == nil {
		l, err := m.openWAL(st.id)
		if err != nil {
			return 0, err
		}
		st.wal = l
	}
	replayed, err := m.replayTail(st, st.wal.Replay)
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
	if stats.Recovered > 0 && m.opt.Fsync == FsyncInterval {
		// A process crash can leave stream directories the last Flush
		// never reached; the recovered logs' own files are covered by
		// their first Sync.
		m.walDirDirty.Store(true)
	}
	return stats, nil
}
