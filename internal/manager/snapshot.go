package manager

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"cad/internal/core"
)

// snapSuffix names snapshot files <id>.cadsnap under the snapshot
// directory; ValidateID keeps ids path-safe. Quarantined files get an
// additional .corrupt suffix and are never picked up again.
const (
	snapSuffix     = ".cadsnap"
	corruptSuffix  = ".corrupt"
	snapTmpSuffix  = ".tmp"
	snapMagic      = 0x43534e50 // "CSNP"
	snapFooterVer  = 1
	snapFooterSize = 12 // crc32c + footer version + magic, little endian
)

// castagnoli is the CRC32-C table shared with the WAL framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorruptSnapshot reports a snapshot that failed its footer or payload
// validation; restore quarantines the file and maps this to ErrNotFound so
// the stream id stays recreatable.
var errCorruptSnapshot = errors.New("manager: corrupt snapshot")

// idFromSnapName maps a snapshot file name back to its stream id.
func idFromSnapName(name string) (string, bool) {
	id, ok := strings.CutSuffix(name, snapSuffix)
	if !ok || ValidateID(id) != nil {
		return "", false
	}
	return id, true
}

// persistedStream is the gob header of one stream checkpoint: the tracker
// blob and the serving state the HTTP layer reports. From version 3 on the
// streamer section (detector + in-flight window, see
// core.Streamer.SaveState) follows the header directly; version 2 nested it
// in Streamer, a second in-memory copy of the stream's largest state.
type persistedStream struct {
	Version   int
	ID        string
	Streamer  []byte
	Tracker   []byte
	Tick      int
	Rounds    int
	Alarms    []Alarm
	Anomalies []core.Anomaly
	Created   time.Time
	// AnomalySeq and OpenID carry the stream's alert numbering across
	// eviction and restart so dedup keys stay stable. gob tolerates their
	// absence in older snapshots (they decode as zero), so the envelope
	// version is unchanged.
	AnomalySeq int
	OpenID     int
}

const (
	streamSnapVersion = 3
	streamSnapNested  = 2
)

// snapWriters recycles the 64 KiB buffers between the sealed-snapshot
// encoder and the temp file.
var snapWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// crcWriter forwards writes to w, folding every byte into a CRC32-C and a
// byte count on the way, so a snapshot is sealed without a second pass
// over it.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += int64(n)
	return n, err
}

// sealFooter is the footer that seals a snapshot whose bytes before it
// have CRC32-C crc, so restore can tell a whole snapshot from a torn or
// bit-rotted one.
func sealFooter(crc uint32) [snapFooterSize]byte {
	var footer [snapFooterSize]byte
	binary.LittleEndian.PutUint32(footer[:], crc)
	binary.LittleEndian.PutUint32(footer[4:], snapFooterVer)
	binary.LittleEndian.PutUint32(footer[8:], snapMagic)
	return footer
}

// checkFooter validates and strips the footer, returning the gob payload.
func checkFooter(raw []byte) ([]byte, error) {
	if len(raw) < snapFooterSize {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the footer", errCorruptSnapshot, len(raw))
	}
	payload := raw[:len(raw)-snapFooterSize]
	footer := raw[len(raw)-snapFooterSize:]
	if binary.LittleEndian.Uint32(footer[8:]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", errCorruptSnapshot)
	}
	if v := binary.LittleEndian.Uint32(footer[4:]); v != snapFooterVer {
		return nil, fmt.Errorf("%w: footer version %d, want %d", errCorruptSnapshot, v, snapFooterVer)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(footer) {
		return nil, fmt.Errorf("%w: checksum mismatch", errCorruptSnapshot)
	}
	return payload, nil
}

// writeSnapshot persists st atomically: stream the sealed snapshot into a
// temp file, fsync it (per the fsync policy), rename into place, and fsync
// the directory so the rename itself survives a power cut. Every attempt is
// timed into cad_snapshot_write_seconds; a written file counts its bytes
// into cad_snapshot_bytes_total. Caller holds st.mu.
func (m *Manager) writeSnapshot(st *stream) error {
	start := time.Now()
	defer func() { m.snapSeconds.Observe(time.Since(start).Seconds()) }()
	if err := m.fs.MkdirAll(m.opt.SnapshotDir, 0o755); err != nil {
		return fmt.Errorf("manager: snapshot %s: %w", st.id, err)
	}
	// st.mu serializes writers of this stream, so a fixed temp name is
	// unambiguous and never leaks anonymous files.
	tmpPath := m.snapPath(st.id) + snapTmpSuffix
	tmp, err := m.fs.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("manager: snapshot %s: %w", st.id, err)
	}
	bw := snapWriters.Get().(*bufio.Writer)
	bw.Reset(tmp)
	n, err := sealTo(bw, st)
	if err == nil {
		err = bw.Flush()
	}
	bw.Reset(nil)
	snapWriters.Put(bw)
	if err != nil {
		tmp.Close()
		_ = m.fs.Remove(tmpPath)
		return fmt.Errorf("manager: snapshot %s: %w", st.id, err)
	}
	if m.fsyncOn() {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			_ = m.fs.Remove(tmpPath)
			return fmt.Errorf("manager: snapshot %s: sync: %w", st.id, err)
		}
	}
	if err := tmp.Close(); err != nil {
		_ = m.fs.Remove(tmpPath)
		return fmt.Errorf("manager: snapshot %s: %w", st.id, err)
	}
	if err := m.fs.Rename(tmpPath, m.snapPath(st.id)); err != nil {
		_ = m.fs.Remove(tmpPath)
		return fmt.Errorf("manager: snapshot %s: %w", st.id, err)
	}
	m.snapBytes.Add(uint64(n))
	if m.fsyncOn() {
		if err := m.syncDir(m.opt.SnapshotDir); err != nil {
			return fmt.Errorf("manager: snapshot %s: %w", st.id, err)
		}
	}
	return nil
}

// syncDir fsyncs a directory so a completed rename is durable.
func (m *Manager) syncDir(dir string) error {
	d, err := m.fs.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeSnapshotRetry retries writeSnapshot on transient errors with
// bounded exponential backoff and jitter before giving up (the caller then
// keeps the stream resident — state is never dropped). Caller holds st.mu.
func (m *Manager) writeSnapshotRetry(st *stream) error {
	base := m.opt.SnapshotRetryBase
	var err error
	for attempt := 0; attempt < m.opt.SnapshotRetries; attempt++ {
		if attempt > 0 {
			m.snapRetries.Inc()
			time.Sleep(base<<(attempt-1) + time.Duration(rand.Int63n(int64(base))))
		}
		if err = m.writeSnapshot(st); err == nil {
			return nil
		}
	}
	return err
}

// readSnapshot loads and validates the snapshot for id. Corrupt files are
// quarantined on the spot — renamed *.corrupt and counted — so one bad
// restore never turns into a permanent restore loop.
func (m *Manager) readSnapshot(id string) (persistedStream, error) {
	var env persistedStream
	raw, err := m.fs.ReadFile(m.snapPath(id))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return env, fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		return env, fmt.Errorf("manager: restore %s: %w", id, err)
	}
	env, err = decodeSealed(raw)
	if err != nil {
		m.quarantine(m.snapPath(id))
		return persistedStream{}, fmt.Errorf("restore %s: %w", id, err)
	}
	return env, nil
}

// quarantine renames a damaged file or directory out of the restore path,
// preserving it as evidence for the operator.
func (m *Manager) quarantine(path string) {
	dst := path + corruptSuffix
	if err := m.fs.Rename(path, dst); err != nil {
		// A previous quarantine may occupy the name; replace it — the
		// newest evidence wins, and the restore path must be cleared.
		_ = m.fs.RemoveAll(dst)
		if err := m.fs.Rename(path, dst); err != nil {
			_ = m.fs.RemoveAll(path)
		}
	}
	m.quarantined.Inc()
}

// restore loads the snapshot for id, or in durable mode the genesis
// record of a stream that has none, replays its WAL (in durable mode), and
// re-registers the stream, evicting an LRU victim if the registry is
// full. Without a WAL directory the consumed snapshot is deleted — legacy
// behavior, where a snapshot exists exactly while its stream is evicted;
// with one the snapshot is the stream's persistent checkpoint and remains.
// Returns the stream and how many WAL records were replayed. Concurrent
// restores of the same id race benignly: the loser finds the id registered
// and returns the winner's stream.
func (m *Manager) restore(id string) (*stream, int, error) {
	if m.opt.SnapshotDir == "" {
		return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	st, err := m.loadStream(id)
	if err != nil {
		return nil, 0, err
	}
	replayed := 0
	if m.durable() {
		// Replay while the stream is still private: by the time anyone
		// can acquire it, it is indistinguishable from one that never
		// left memory.
		replayed, err = m.replayWAL(st)
		if err != nil {
			m.walErrors.Inc()
			m.degrade(id, err)
			st.wal = nil
		}
	}
	if err := m.insert(st); err != nil {
		m.discard(st)
		if errors.Is(err, ErrExists) {
			// Another goroutine restored it first; use theirs.
			if cur := m.residentStream(id); cur != nil {
				return cur, 0, nil
			}
		}
		return nil, 0, err
	}
	st.mu.Lock()
	if !st.evicted {
		if m.durable() {
			// Fold any replayed records into a fresh checkpoint so the
			// next crash replays only what arrives from here on.
			if replayed > 0 && st.wal != nil {
				if cerr := m.writeSnapshotRetry(st); cerr == nil {
					if rerr := st.wal.Reset(); rerr == nil {
						st.walRecs = 0
					} else {
						m.walErrors.Inc()
					}
				} else {
					m.snapFails.Inc()
				}
			}
		} else {
			// Remove the consumed snapshot, unless the stream already
			// lost an LRU race after insertion — then the file on disk is
			// the NEW snapshot and must survive. The evicted flag and
			// snapshot writes share st.mu, so the check and the write
			// cannot interleave.
			_ = m.fs.Remove(m.snapPath(id))
		}
	}
	st.mu.Unlock()
	m.restores.Inc()
	return st, replayed, nil
}

// loadStream builds the private stream for id from its snapshot, or in
// durable mode, when it has none, from its WAL's genesis record. The WAL
// of a corrupt snapshot is quarantined with it: its records need the base
// the snapshot held, so the id reports a clean miss, recreatable rather
// than permanently broken.
func (m *Manager) loadStream(id string) (*stream, error) {
	env, err := m.readSnapshot(id)
	switch {
	case err == nil:
		st, err := m.buildStream(env)
		if err != nil {
			return nil, fmt.Errorf("manager: restore %s: %w", id, err)
		}
		return st, nil
	case errors.Is(err, ErrNotFound) && m.durable():
		return m.genesisStream(id)
	case errors.Is(err, errCorruptSnapshot):
		if m.durable() {
			if _, serr := m.fs.Stat(m.walPath(id)); serr == nil {
				m.quarantine(m.walPath(id))
			}
		}
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return nil, err
}
