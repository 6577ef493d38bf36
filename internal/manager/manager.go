// Package manager owns a fleet of named CAD streams — one detector,
// streamer, and anomaly tracker per stream — behind a sharded locking
// scheme: the manager's own mutex guards only the registry map, while each
// stream carries its own mutex, so ingestion on stream A never serializes
// behind a Louvain round on stream B.
//
// The registry is bounded. When it is full, creating (or restoring) a
// stream evicts the least-recently-used resident stream: its full streaming
// state — detector, in-flight window, tracker, alarm history — is
// snapshotted to the snapshot directory, and any later access to the
// evicted stream transparently restores it, resuming mid-window with
// bit-identical round reports and no repeated warm-up. A Sweep pass
// additionally evicts streams idle longer than the configured TTL. Without
// a snapshot directory eviction is disabled and a full registry rejects new
// streams instead.
//
// # Durability
//
// With a WAL directory configured the manager is crash-safe: every
// ingested column is appended to a per-stream, checksummed, segmented
// write-ahead log before it touches detector state, and snapshots become
// persistent checkpoints (written at WAL-size thresholds and on eviction,
// each time folding the log). A created stream's log has a genesis record
// as its head, holding what Create was given, its base until the first
// checkpoint. Recover scans the disk on boot, rebuilds each stream from
// its newest checkpoint or genesis record, and replays its WAL through the
// streamer to reach bit-identical state versus a process that never
// crashed. Snapshots carry a CRC32-C footer; a corrupt or torn
// snapshot is quarantined (renamed *.corrupt, counted in
// cad_snapshot_quarantined_total) so the stream id stays recreatable
// instead of failing every restore forever. If the disk fails at runtime —
// a WAL append or checkpoint error — the manager degrades to memory-only
// operation: ingest keeps working, cad_durability_degraded flips to 1, and
// Degraded reports the cause for /readyz.
package manager

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cad/internal/alert"
	"cad/internal/core"
	"cad/internal/faultfs"
	"cad/internal/fleet"
	"cad/internal/obs"
	"cad/internal/offheap"
	"cad/internal/wal"
)

// Registry errors, distinguished so the HTTP layer can map them onto stable
// machine-readable error codes.
var (
	// ErrNotFound reports that no stream (resident or snapshotted) has the id.
	ErrNotFound = errors.New("manager: stream not found")
	// ErrExists reports a Create against an id that is already resident.
	ErrExists = errors.New("manager: stream already exists")
	// ErrCapacity reports a full registry with no evictable stream.
	ErrCapacity = errors.New("manager: stream capacity exhausted")
	// ErrBadID reports a syntactically invalid stream id.
	ErrBadID = errors.New("manager: invalid stream id")
)

// Alarm is one abnormal round kept in a stream's ring buffer.
type Alarm struct {
	// Round is the detector's global round counter at alarm time.
	Round int `json:"round"`
	// Tick is the ingest counter (columns received) when the alarm fired.
	Tick int `json:"tick"`
	// Variations is n_r, Score the normalized deviation.
	Variations int     `json:"variations"`
	Score      float64 `json:"score"`
	// Sensors are the outlier sensors O_r at the alarm round.
	Sensors []int `json:"sensors"`
	// Time is the wall-clock arrival of the alarming column.
	Time time.Time `json:"time"`
}

// MarshalJSON writes the sensors of a round with no outliers as [], not
// null. In memory the slice stays nil, as gob restores it.
func (a Alarm) MarshalJSON() ([]byte, error) {
	type plain Alarm
	if a.Sensors == nil {
		a.Sensors = []int{}
	}
	return json.Marshal(plain(a))
}

// UnmarshalJSON reads [] back as nil sensors, so an alarm comes back from
// JSON as it does from gob and equals the report it was made from.
func (a *Alarm) UnmarshalJSON(b []byte) error {
	type plain Alarm
	if err := json.Unmarshal(b, (*plain)(a)); err != nil {
		return err
	}
	if len(a.Sensors) == 0 {
		a.Sensors = nil
	}
	return nil
}

// Options configures a Manager.
type Options struct {
	// Capacity bounds the number of resident streams (≤ 0 means 64).
	Capacity int
	// IdleTTL is the idle age beyond which Sweep evicts a stream
	// (≤ 0 disables idle eviction).
	IdleTTL time.Duration
	// SnapshotDir receives evicted-stream snapshots; "" disables snapshots,
	// and with them LRU eviction (a full registry then rejects creates).
	SnapshotDir string
	// MaxAlarms bounds each stream's alarm/anomaly ring buffers (≤ 0 means 256).
	MaxAlarms int
	// Registry receives the per-stream detector metrics; nil creates a
	// private one.
	Registry *obs.Registry
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time

	// WALDir enables crash-safe durability: every ingested column is
	// appended to a per-stream write-ahead log under this directory
	// before it is applied, snapshots become persistent checkpoints, and
	// Recover replays the logs on boot. "" disables write-ahead logging
	// (snapshots then exist only while a stream is evicted, as before).
	// When WALDir is set and SnapshotDir is not, snapshots default to
	// WALDir/snapshots.
	WALDir string
	// Fsync picks when WAL appends, created streams and snapshot writes
	// reach stable storage: FsyncAlways (default; an ingest or a create
	// is durable before it returns), FsyncInterval (appends and creates
	// never fsync; they are durable once the next Flush returns, which the
	// owner calls on a timer), or FsyncNever (leave it to the OS).
	// Snapshots fsync under every policy but FsyncNever.
	Fsync string
	// WALSegmentBytes rotates WAL segments past this size
	// (≤ 0 means 1 MiB).
	WALSegmentBytes int64
	// CheckpointEvery folds a stream's WAL into a fresh snapshot after
	// this many appended records, bounding replay time after a crash
	// (≤ 0 means 4096).
	CheckpointEvery int
	// SnapshotRetries bounds snapshot write attempts on transient errors
	// (≤ 0 means 3); retried with exponential backoff and jitter.
	SnapshotRetries int
	// SnapshotRetryBase is the first backoff delay (≤ 0 means 5ms).
	SnapshotRetryBase time.Duration
	// FS overrides filesystem access for all snapshot and WAL I/O so
	// tests can inject faults; nil means the real OS.
	FS faultfs.FS

	// Alerts, when non-nil, receives push events from the detection path:
	// one alarm per abnormal round, anomaly opened/updated/closed
	// transitions, and durability_degraded. Emission happens under the
	// stream lock, so per-stream event order matches round order; WAL
	// replay during recovery re-applies columns silently (the original
	// run already emitted them).
	Alerts *alert.Bus

	// Fleet, when non-nil together with Alerts, is the second-stage
	// incident correlator: New attaches it as a consumer of the alert bus
	// (inheriting the at-least-once delivery contract), so every alarm the
	// detection path publishes also feeds cross-stream correlation, and
	// the fleet's incident_opened/updated/closed events flow back through
	// the same bus to all sinks. Without Alerts the fleet is only carried
	// (Manager.Fleet serves it to the HTTP layer) and must be fed by the
	// caller.
	Fleet *fleet.Fleet
}

// Fsync policy names accepted by Options.Fsync.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncNever    = "never"
)

// Manager is a bounded registry of named CAD streams. Safe for concurrent
// use; operations on distinct streams run in parallel.
type Manager struct {
	opt    Options
	reg    *obs.Registry
	now    func() time.Time
	fs     faultfs.FS
	alerts *alert.Bus
	fleet  *fleet.Fleet

	mu             sync.Mutex
	streams        map[string]*stream
	degradedReason string // why durability was lost; guarded by mu

	// degraded flips once and stays set when the disk fails at runtime;
	// atomic so the readiness probe never contends with ingest.
	degraded atomic.Bool
	// walDirDirty marks the WAL directory as holding stream directories
	// that the next Flush must make durable.
	walDirDirty atomic.Bool

	resident    *obs.Gauge
	offheapG    *obs.Gauge
	evictions   *obs.Counter
	restores    *obs.Counter
	snapFails   *obs.Counter
	snapRetries *obs.Counter
	snapSeconds *obs.Histogram
	snapBytes   *obs.Counter
	quarantined *obs.Counter
	walAppends  *obs.Counter
	walErrors   *obs.Counter
	walReplayed *obs.Counter
	walFlush    *obs.Histogram
	recovered   *obs.Counter
	degradedG   *obs.Gauge
}

// stream is one tenant: detector + streamer + tracker plus the serving
// state (tick counter, alarm and anomaly rings). All mutable fields are
// guarded by mu, except lastUsed which is read by LRU selection without the
// stream lock and is therefore atomic.
type stream struct {
	id string

	mu        sync.Mutex
	evicted   bool
	det       *core.Detector
	streamer  *core.Streamer
	tracker   *core.Tracker
	tick      int
	rounds    int
	alarms    []Alarm
	anomalies []core.Anomaly
	maxAlarm  int

	created  time.Time
	lastUsed atomic.Int64 // unix nanoseconds

	// wal is the stream's write-ahead log; nil when durability is off or
	// has degraded. walRecs counts records appended since the last
	// checkpoint. Both guarded by mu.
	wal     *wal.Log
	walRecs int

	// anomalySeq numbers the stream's anomalies (the alert dedup key's
	// anomalyId); openID is the id of the anomaly in progress, 0 when
	// none. Persisted in snapshots so a restored stream keeps its
	// numbering. muted suppresses event emission during tail replay
	// (crash recovery and migration import).
	// All guarded by mu.
	anomalySeq int
	openID     int
	muted      bool
}

// New builds a manager. The zero Options value works: 64 resident streams,
// no snapshots, 256 alarms per stream.
func New(o Options) *Manager {
	if o.Capacity <= 0 {
		o.Capacity = 64
	}
	if o.MaxAlarms <= 0 {
		o.MaxAlarms = 256
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.WALDir != "" && o.SnapshotDir == "" {
		o.SnapshotDir = filepath.Join(o.WALDir, "snapshots")
	}
	if o.WALSegmentBytes <= 0 {
		o.WALSegmentBytes = wal.DefaultSegmentBytes
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 4096
	}
	if o.SnapshotRetries <= 0 {
		o.SnapshotRetries = 3
	}
	if o.SnapshotRetryBase <= 0 {
		o.SnapshotRetryBase = 5 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = faultfs.OS()
	}
	now := o.Now
	if now == nil {
		now = time.Now
	}
	m := &Manager{
		opt:     o,
		reg:     o.Registry,
		now:     now,
		fs:      o.FS,
		alerts:  o.Alerts,
		streams: make(map[string]*stream),
		resident: o.Registry.Gauge("cad_streams_resident",
			"Streams currently resident in the manager registry."),
		offheapG: o.Registry.Gauge("cad_offheap_bytes",
			"Bytes of the process's streams mapped outside the Go heap: each stream's correlation triangle and window ring. Runtime memory statistics do not count them."),
		evictions: o.Registry.Counter("cad_stream_evictions_total",
			"Streams evicted to a snapshot (LRU capacity or idle TTL)."),
		restores: o.Registry.Counter("cad_stream_restores_total",
			"Streams restored from a snapshot on access."),
		snapFails: o.Registry.Counter("cad_stream_snapshot_errors_total",
			"Failed snapshot writes; the stream stays resident."),
		snapRetries: o.Registry.Counter("cad_snapshot_retries_total",
			"Snapshot write attempts retried after a transient error."),
		snapSeconds: o.Registry.Histogram("cad_snapshot_write_seconds",
			"Time per snapshot write attempt (adopt or import, checkpoint, evict, restore fold), under the stream lock.", obs.DefBuckets),
		snapBytes: o.Registry.Counter("cad_snapshot_bytes_total",
			"Bytes of snapshot files written."),
		quarantined: o.Registry.Counter("cad_snapshot_quarantined_total",
			"Corrupt snapshots or WALs renamed *.corrupt instead of restored."),
		walAppends: o.Registry.Counter("cad_wal_appends_total",
			"Columns appended to a write-ahead log."),
		walErrors: o.Registry.Counter("cad_wal_errors_total",
			"Write-ahead log failures (append, sync, open, or replay)."),
		walReplayed: o.Registry.Counter("cad_wal_replayed_total",
			"WAL records replayed into restored streams."),
		walFlush: o.Registry.Histogram("cad_wal_flush_seconds",
			"Time per Flush pass, which fsyncs the WALs under the interval policy.", obs.DefBuckets),
		recovered: o.Registry.Counter("cad_streams_recovered_total",
			"Streams recovered from disk at startup."),
		degradedG: o.Registry.Gauge("cad_durability_degraded",
			"1 when the manager lost durability and runs memory-only."),
	}
	if o.Fleet != nil {
		m.fleet = o.Fleet
		if o.Alerts != nil {
			// Attach only fails when a sink named "fleet" is already
			// registered — i.e. this fleet (or another) is already consuming
			// the bus; the existing attachment wins.
			_ = o.Fleet.Attach(o.Alerts)
		}
	}
	return m
}

// Fleet returns the second-stage incident correlator the manager was
// built with, or nil.
func (m *Manager) Fleet() *fleet.Fleet { return m.fleet }

// durable reports whether write-ahead logging is configured.
func (m *Manager) durable() bool { return m.opt.WALDir != "" }

// Durable reports whether write-ahead logging is configured (regardless
// of whether it has since degraded; see Degraded).
func (m *Manager) Durable() bool { return m.durable() }

// Degraded reports whether durability was lost at runtime (the manager
// keeps serving from memory) and why. Always false when write-ahead
// logging is not configured.
func (m *Manager) Degraded() (bool, string) {
	if !m.degraded.Load() {
		return false, ""
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return true, m.degradedReason
}

// Registry returns the metrics registry the manager reports into.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// MaxAlarms returns the per-stream alarm ring capacity.
func (m *Manager) MaxAlarms() int { return m.opt.MaxAlarms }

// ValidateID checks that id is usable as a stream name: 1–64 characters
// from [a-zA-Z0-9._-], not starting with a dot or dash (which keeps ids
// safe as snapshot file names and unambiguous in URLs).
func ValidateID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("%w: %q (need 1–64 characters)", ErrBadID, id)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-'
		if !ok {
			return fmt.Errorf("%w: %q (allowed: letters, digits, '.', '_', '-')", ErrBadID, id)
		}
	}
	if id[0] == '.' || id[0] == '-' {
		return fmt.Errorf("%w: %q (must not start with '.' or '-')", ErrBadID, id)
	}
	return nil
}

// Create registers a new stream with a fresh detector for sensors and cfg.
// If a snapshot or, in durable mode, a WAL exists for id (the stream was
// evicted or the process restarted), the stream is restored instead and
// cfg is ignored — an evicted tenant resumes, never restarts. Returns
// whether a restore happened. In durable mode the new stream's WAL gets
// its genesis record as its head, which the Fsync policy makes durable
// before Create returns ("always") or at the next Flush ("interval").
func (m *Manager) Create(id string, sensors int, cfg core.Config) (restored bool, err error) {
	if err := ValidateID(id); err != nil {
		return false, err
	}
	if m.residentStream(id) != nil {
		return false, fmt.Errorf("%w: %q", ErrExists, id)
	}
	if st, _, err := m.restore(id); err == nil && st != nil {
		return true, nil
	} else if err != nil && !errors.Is(err, ErrNotFound) {
		return false, err
	}
	det, err := core.NewDetector(sensors, cfg)
	if err != nil {
		return false, err
	}
	st := m.newStream(id, det)
	if m.durable() {
		// The stream is still private, so its WAL needs no lock. A
		// durability failure degrades instead of blocking the create: the
		// stream works, memory-only.
		m.initGenesis(st, sensors, cfg)
	}
	if err := m.insert(st); err != nil {
		m.discard(st)
		return false, err
	}
	return false, nil
}

// Adopt registers a stream around an existing (possibly warmed-up)
// detector. It is how the legacy single-stream service plugs its detector
// in as the default stream. Unlike Create, an existing on-disk snapshot
// for id is discarded — the caller's detector wins — but a RESIDENT stream
// is never clobbered: Adopt then returns ErrExists so a caller that ran
// Recover first can keep the recovered state instead.
func (m *Manager) Adopt(id string, det *core.Detector) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	if m.residentStream(id) != nil {
		return fmt.Errorf("%w: %q", ErrExists, id)
	}
	if m.opt.SnapshotDir != "" {
		_ = m.fs.Remove(m.snapPath(id))
	}
	if m.durable() {
		_ = m.fs.RemoveAll(m.walPath(id))
	}
	st := m.newStream(id, det)
	if m.durable() {
		m.initDurability(st)
	}
	if err := m.insert(st); err != nil {
		m.discard(st)
		return err
	}
	return nil
}

// newStream assembles the per-tenant state around det and attaches the
// per-stream metrics observer.
func (m *Manager) newStream(id string, det *core.Detector) *stream {
	st := &stream{
		id:       id,
		det:      det,
		streamer: core.NewStreamer(det),
		tracker:  core.NewTracker(det.Config()),
		maxAlarm: m.opt.MaxAlarms,
		created:  m.now(),
	}
	st.lastUsed.Store(m.now().UnixNano())
	det.SetObserver(newDetectorMetrics(m.reg, id))
	return st
}

// residentStream returns the resident stream for id, or nil.
func (m *Manager) residentStream(id string) *stream {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.streams[id]
}

// insert adds st to the registry, evicting the LRU resident stream first
// when the registry is full. The eviction's snapshot write happens outside
// the registry lock, so other streams' lookups never wait on it.
func (m *Manager) insert(st *stream) error {
	var victim *stream
	m.mu.Lock()
	if _, ok := m.streams[st.id]; ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, st.id)
	}
	if len(m.streams) >= m.opt.Capacity {
		if m.opt.SnapshotDir == "" {
			m.mu.Unlock()
			return fmt.Errorf("%w: %d streams resident and no snapshot directory to evict into", ErrCapacity, len(m.streams))
		}
		victim = m.lruLocked()
		if victim == nil {
			m.mu.Unlock()
			return fmt.Errorf("%w: %d streams resident", ErrCapacity, len(m.streams))
		}
	}
	m.streams[st.id] = st
	m.resident.Set(float64(len(m.streams)))
	m.mu.Unlock()
	if victim != nil {
		if _, err := m.evict(victim, time.Time{}); err != nil {
			m.snapFails.Inc()
		}
	}
	m.offheapG.Set(float64(offheap.Bytes()))
	return nil
}

// lruLocked picks the least-recently-used resident stream. Caller holds m.mu.
func (m *Manager) lruLocked() *stream {
	var victim *stream
	var oldest int64
	for _, st := range m.streams {
		if used := st.lastUsed.Load(); victim == nil || used < oldest {
			victim, oldest = st, used
		}
	}
	return victim
}

// evict snapshots st and removes it from the registry. A non-zero cutoff
// makes the eviction conditional: streams used at or after the cutoff are
// left alone (Sweep re-checks under the stream lock so a stream that went
// hot between selection and eviction is not penalized). On snapshot-write
// failure the stream stays resident — state is never dropped.
func (m *Manager) evict(st *stream, cutoff time.Time) (bool, error) {
	st.mu.Lock()
	if st.evicted || (!cutoff.IsZero() && st.lastUsed.Load() >= cutoff.UnixNano()) {
		st.mu.Unlock()
		return false, nil
	}
	err := m.writeSnapshotRetry(st)
	if err == nil {
		st.evicted = true
		st.streamer.Release()
		// The snapshot now covers everything the WAL held; fold the log so
		// the next restore replays nothing. Errors are harmless — replay
		// skips records at or below the snapshot's sequence number.
		if st.wal != nil {
			if rerr := st.wal.Reset(); rerr != nil {
				m.walErrors.Inc()
			}
			_ = st.wal.Close()
			st.wal = nil
			st.walRecs = 0
		}
	}
	st.mu.Unlock()
	if err != nil {
		return false, err
	}
	m.mu.Lock()
	if m.streams[st.id] == st {
		delete(m.streams, st.id)
		m.resident.Set(float64(len(m.streams)))
	}
	m.mu.Unlock()
	m.evictions.Inc()
	m.offheapG.Set(float64(offheap.Bytes()))
	return true, nil
}

// acquire returns the stream for id with its lock held; the caller must
// unlock it. A stream found evicted mid-acquisition (it lost an LRU race)
// is transparently restored from its snapshot.
func (m *Manager) acquire(id string) (*stream, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	for {
		st := m.residentStream(id)
		if st == nil {
			var err error
			st, _, err = m.restore(id)
			if err != nil {
				return nil, err
			}
		}
		st.mu.Lock()
		if st.evicted {
			st.mu.Unlock()
			continue
		}
		st.lastUsed.Store(m.now().UnixNano())
		return st, nil
	}
}

// Delete removes the stream and any snapshot of it. It succeeds when either
// existed.
func (m *Manager) Delete(id string) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	m.mu.Lock()
	st, ok := m.streams[id]
	if ok {
		delete(m.streams, id)
		m.resident.Set(float64(len(m.streams)))
	}
	m.mu.Unlock()
	if ok {
		// Close the log before its files go, so a Flush that listed the
		// stream finds no log rather than syncing removed files. The lock
		// is held until the files are gone: goroutines already holding the
		// pointer then see it evicted, retry, miss the registry and the
		// files, and report not-found.
		st.mu.Lock()
		defer st.mu.Unlock()
		st.evicted = true
		st.streamer.Release()
		m.offheapG.Set(float64(offheap.Bytes()))
		if st.wal != nil {
			_ = st.wal.Close()
			st.wal = nil
		}
	}
	hadSnap := false
	if m.opt.SnapshotDir != "" {
		if err := m.fs.Remove(m.snapPath(id)); err == nil {
			hadSnap = true
		}
	}
	if m.durable() {
		_ = m.fs.RemoveAll(m.walPath(id))
	}
	if !ok && !hadSnap {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return nil
}

// Sweep evicts every resident stream idle longer than IdleTTL and returns
// how many were evicted. It is a no-op without a snapshot directory or TTL.
func (m *Manager) Sweep() int {
	if m.opt.SnapshotDir == "" || m.opt.IdleTTL <= 0 {
		return 0
	}
	cutoff := m.now().Add(-m.opt.IdleTTL)
	m.mu.Lock()
	var idle []*stream
	for _, st := range m.streams {
		if st.lastUsed.Load() < cutoff.UnixNano() {
			idle = append(idle, st)
		}
	}
	m.mu.Unlock()
	n := 0
	for _, st := range idle {
		done, err := m.evict(st, cutoff)
		if err != nil {
			m.snapFails.Inc()
		} else if done {
			n++
		}
	}
	return n
}

// Len returns the number of resident streams.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.streams)
}

// Info summarizes one stream for listings. Snapshotted streams report only
// their identity — inspecting them would mean reading the whole snapshot.
type Info struct {
	ID string `json:"id"`
	// State is "active" (resident) or "snapshotted" (evicted to disk).
	State    string    `json:"state"`
	Sensors  int       `json:"sensors,omitempty"`
	Ticks    int       `json:"ticks,omitempty"`
	Rounds   int       `json:"rounds,omitempty"`
	Alarms   int       `json:"alarms,omitempty"`
	Created  time.Time `json:"created,omitempty"`
	LastUsed time.Time `json:"lastUsed,omitempty"`
}

// List returns every known stream — resident and snapshotted — sorted by id.
func (m *Manager) List() []Info {
	m.mu.Lock()
	resident := make([]*stream, 0, len(m.streams))
	for _, st := range m.streams {
		resident = append(resident, st)
	}
	m.mu.Unlock()

	out := make([]Info, 0, len(resident))
	seen := make(map[string]bool, len(resident))
	for _, st := range resident {
		st.mu.Lock()
		if st.evicted {
			st.mu.Unlock()
			continue
		}
		out = append(out, Info{
			ID: st.id, State: "active",
			Sensors: st.det.Sensors(), Ticks: st.tick, Rounds: st.rounds,
			Alarms: len(st.alarms), Created: st.created,
			LastUsed: time.Unix(0, st.lastUsed.Load()),
		})
		seen[st.id] = true
		st.mu.Unlock()
	}
	if m.opt.SnapshotDir != "" {
		// In durable mode a resident stream may keep an on-disk
		// checkpoint, so the seen filter is what separates "active" from
		// "snapshotted".
		if entries, err := m.fs.ReadDir(m.opt.SnapshotDir); err == nil {
			for _, e := range entries {
				id, ok := idFromSnapName(e.Name())
				if !ok || seen[id] {
					continue
				}
				out = append(out, Info{ID: id, State: "snapshotted"})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (m *Manager) snapPath(id string) string {
	return filepath.Join(m.opt.SnapshotDir, id+snapSuffix)
}

// walPath is the directory holding one stream's WAL segments.
func (m *Manager) walPath(id string) string {
	return filepath.Join(m.opt.WALDir, id)
}
