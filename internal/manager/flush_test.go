package manager

import (
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"cad/internal/faultfs"
	"cad/internal/obs"
)

// TestFsyncPolicySyncs counts the fsyncs each policy makes. Under
// "interval" creates and appends make none and Flush makes each one once;
// under "always" a create is durable before it returns; "never" makes
// none at all.
func TestFsyncPolicySyncs(t *testing.T) {
	openDir := func(dir, policy string) (*Manager, *faultfs.Fault, *obs.Registry) {
		fault := faultfs.New(faultfs.OS())
		o := durableOptions(dir)
		o.Fsync, o.FS = policy, fault
		return New(o), fault, o.Registry
	}
	open := func(policy string) (*Manager, *faultfs.Fault, *obs.Registry) {
		return openDir(t.TempDir(), policy)
	}
	cols := makeCols(31, 45)

	t.Run("interval", func(t *testing.T) {
		m, fault, reg := open(FsyncInterval)
		if _, err := m.Create("plant", 8, testConfig()); err != nil {
			t.Fatal(err)
		}
		ingestAll(t, m, "plant", cols[:40])
		if got := fault.Syncs(); got != 0 {
			t.Fatalf("create and ingest made %d fsyncs, want 0", got)
		}
		m.Flush()
		// The head, the segment, the stream directory that gained them,
		// and the WAL directory that gained the stream directory.
		if got := fault.Syncs(); got != 4 {
			t.Fatalf("first Flush made %d fsyncs, want 4", got)
		}
		m.Flush()
		if got := fault.Syncs(); got != 4 {
			t.Fatalf("Flush with nothing outstanding made %d fsyncs", got-4)
		}
		ingestAll(t, m, "plant", cols[40:])
		m.Flush()
		if got := fault.Syncs(); got != 5 {
			t.Fatalf("Flush after more appends made %d fsyncs, want 1 (the segment)", got-4)
		}
		if got := reg.Histogram("cad_wal_flush_seconds", "", obs.DefBuckets).Count(); got != 3 {
			t.Fatalf("cad_wal_flush_seconds counts %d passes, want 3", got)
		}
	})

	t.Run("always", func(t *testing.T) {
		m, fault, _ := open(FsyncAlways)
		if _, err := m.Create("plant", 8, testConfig()); err != nil {
			t.Fatal(err)
		}
		if got := fault.Syncs(); got != 3 {
			t.Fatalf("create made %d fsyncs, want 3 (head, stream and WAL directories)", got)
		}
		ingestAll(t, m, "plant", cols[:5])
		m.Flush()
		if got := fault.Syncs(); got != 8 {
			t.Fatalf("5 appends and a Flush made %d fsyncs, want 5", got-3)
		}
	})

	// A process that crashed before its Flush leaves files the next one
	// cannot tell from synced ones. Recover checkpoints a stream that
	// replayed columns, whose sealed snapshot is synced at once; the first
	// Flush after Recover covers the rest: the head of a stream that
	// replayed none, the stream directories and the WAL directory.
	t.Run("recovered", func(t *testing.T) {
		dir := t.TempDir()
		m, fault, _ := openDir(dir, FsyncInterval)
		for _, id := range []string{"idle", "plant"} {
			if _, err := m.Create(id, 8, testConfig()); err != nil {
				t.Fatal(err)
			}
		}
		ingestAll(t, m, "plant", cols[:40])
		if got := fault.Syncs(); got != 0 {
			t.Fatalf("create and ingest made %d fsyncs, want 0", got)
		}
		m, fault, _ = openDir(dir, FsyncInterval)
		if stats, err := m.Recover(); err != nil || stats.Recovered != 2 || stats.Replayed != 40 {
			t.Fatalf("Recover = %+v, %v; want 2 streams, 40 records", stats, err)
		}
		if got := fault.Syncs(); got != 2 {
			t.Fatalf("Recover made %d fsyncs, want 2 (plant's snapshot and its directory)", got)
		}
		m.Flush()
		if got := fault.Syncs(); got != 6 {
			t.Fatalf("first Flush after Recover made %d fsyncs, want 4 (idle's head, both stream directories, the WAL directory)", got-2)
		}
		m.Flush()
		if got := fault.Syncs(); got != 6 {
			t.Fatalf("Flush with nothing outstanding made %d fsyncs", got-6)
		}
	})

	t.Run("never", func(t *testing.T) {
		m, fault, _ := open(FsyncNever)
		if _, err := m.Create("plant", 8, testConfig()); err != nil {
			t.Fatal(err)
		}
		ingestAll(t, m, "plant", cols)
		m.Flush()
		if got := fault.Syncs(); got != 0 {
			t.Fatalf("never made %d fsyncs, want 0", got)
		}
	})
}

// TestFlushFailureDegrades: a failed Flush counts as a WAL error and
// degrades the stream to memory-only, as a failed append does.
func TestFlushFailureDegrades(t *testing.T) {
	fault := faultfs.New(faultfs.OS())
	o := durableOptions(t.TempDir())
	o.Fsync, o.FS = FsyncInterval, fault
	m := New(o)
	if _, err := m.Create("plant", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, m, "plant", makeCols(3, 10))
	fault.FailSyncs(syscall.EIO)
	m.Flush()
	if degraded, reason := m.Degraded(); !degraded || reason == "" {
		t.Fatalf("Degraded after a failed Flush = %v, %q", degraded, reason)
	}
	if got := o.Registry.Counter("cad_wal_errors_total", "").Value(); got == 0 {
		t.Fatal("failed Flush not counted in cad_wal_errors_total")
	}
	fault.FailSyncs(nil)
	ingestAll(t, m, "plant", makeCols(4, 10))
	if st, err := m.Status("plant"); err != nil || st.Ticks != 20 {
		t.Fatalf("Status after a failed Flush = %+v, %v; want 20 ticks", st, err)
	}
}

// TestFlushDuringDelete: a Flush that listed a stream before a Delete
// removed it must not sync the removed files, which would degrade the
// manager. The test holds the stream's lock until both are queued on it,
// Flush first.
func TestFlushDuringDelete(t *testing.T) {
	o := durableOptions(t.TempDir())
	o.Fsync = FsyncInterval
	m := New(o)
	if _, err := m.Create("plant", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, m, "plant", makeCols(5, 10))
	st := m.residentStream("plant")
	st.mu.Lock()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); m.Flush() }()
	// A lock waiter queued for over a millisecond is handed the lock
	// first, so Flush, queued here, gets it before Delete.
	time.Sleep(20 * time.Millisecond)
	errc := make(chan error, 1)
	go func() { defer wg.Done(); errc <- m.Delete("plant") }()
	time.Sleep(20 * time.Millisecond)
	st.mu.Unlock()
	wg.Wait()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if degraded, reason := m.Degraded(); degraded {
		t.Fatalf("degraded: %s", reason)
	}
	if got := o.Registry.Counter("cad_wal_errors_total", "").Value(); got != 0 {
		t.Fatalf("cad_wal_errors_total = %d, want 0", got)
	}
}

// TestFlushConcurrent runs Flush in a loop while streams ingest, get
// evicted by capacity pressure, exported, and deleted and recreated. Under
// -race it checks the flusher's locking; afterwards every stream recovers
// with every column it acknowledged.
func TestFlushConcurrent(t *testing.T) {
	dir := t.TempDir()
	o := durableOptions(dir)
	o.Fsync, o.Capacity, o.CheckpointEvery = FsyncInterval, 3, 16
	m := New(o)
	const streams, batches = 4, 40
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = "s" + strconv.Itoa(i)
		if _, err := m.Create(ids[i], 8, testConfig()); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
				m.Flush()
			}
		}
	}()
	ticks := make([]int, streams)
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cols := makeCols(int64(50+i), 4*batches)
			for b := 0; b < batches; b++ {
				switch {
				case b%10 == 5:
					if _, err := m.Export(id); err != nil {
						errs <- err
						return
					}
				case i == 0 && b == batches/2:
					if err := m.Delete(id); err != nil {
						errs <- err
						return
					}
					if _, err := m.Create(id, 8, testConfig()); err != nil {
						errs <- err
						return
					}
					ticks[i] = 0
				}
				res, err := m.IngestBatch(id, cols[4*b:4*b+4])
				if err != nil {
					errs <- err
					return
				}
				ticks[i] = res[len(res)-1].Tick
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-flushed
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m.Flush()
	if degraded, reason := m.Degraded(); degraded {
		t.Fatalf("degraded: %s", reason)
	}
	if got := o.Registry.Counter("cad_stream_evictions_total", "").Value(); got == 0 {
		t.Fatal("no stream was evicted; the capacity pressure is gone")
	}
	m2 := New(durableOptions(dir))
	if stats, err := m2.Recover(); err != nil || stats.Recovered != streams {
		t.Fatalf("Recover = %+v, %v; want %d streams", stats, err, streams)
	}
	for i, id := range ids {
		st, err := m2.Status(id)
		if err != nil || st.Ticks != ticks[i] {
			t.Fatalf("recovered %s = %+v, %v; want %d ticks", id, st, err, ticks[i])
		}
	}
}
