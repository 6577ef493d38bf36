package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"cad/internal/faultfs"
	"cad/internal/manager"
)

func getHealth(t *testing.T, h http.Handler, path string) (int, HealthResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s: non-JSON body: %v: %s", path, err, rec.Body)
	}
	return rec.Code, resp
}

func TestHealthEndpoints(t *testing.T) {
	svc := New(testDetector(t), 10)
	h := svc.Handler()
	if code, resp := getHealth(t, h, "/healthz"); code != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("/healthz = %d, %+v", code, resp)
	}
	code, resp := getHealth(t, h, "/readyz")
	if code != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("/readyz = %d, %+v", code, resp)
	}
	// An in-memory single-node service reports every optional subsystem as
	// disabled — present in the map, so operators see what is configured.
	for _, sub := range []string{"wal", "fleet", "cluster"} {
		if got := resp.Subsystems[sub].Status; got != "disabled" {
			t.Errorf("readyz subsystem %s = %q, want disabled", sub, got)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	wantEnvelope(t, rec, http.StatusMethodNotAllowed, CodeMethodNotAllowed)
}

// TestReadyzFleetInMemory: the fleet correlator keeps its state only in
// memory, and /readyz says so without unreadying the node.
func TestReadyzFleetInMemory(t *testing.T) {
	svc := NewWithOptions(testDetector(t), Options{Fleet: seededFleet(t)})
	code, resp := getHealth(t, svc.Handler(), "/readyz")
	if code != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("/readyz = %d, %+v", code, resp)
	}
	fl := resp.Subsystems["fleet"]
	if fl.Status != "ok" || !strings.HasPrefix(fl.Reason, "in-memory; incidents since ") {
		t.Fatalf("readyz fleet subsystem = %+v, want ok and in-memory since boot", fl)
	}
	if _, err := time.Parse(time.RFC3339, strings.TrimPrefix(fl.Reason, "in-memory; incidents since ")); err != nil {
		t.Fatalf("readyz fleet reason %q: %v", fl.Reason, err)
	}
}

// TestReadyzReportsDegraded fills the disk under a durable manager and
// checks /readyz flips to 503 with the cause while /healthz and ingest keep
// answering 200.
func TestReadyzReportsDegraded(t *testing.T) {
	fault := faultfs.New(faultfs.OS())
	mgr := manager.New(manager.Options{
		WALDir: t.TempDir(),
		Fsync:  manager.FsyncNever,
		FS:     fault,
	})
	svc := NewWithOptions(testDetector(t), Options{Manager: mgr})
	h := svc.Handler()

	fault.FailWrites(syscall.ENOSPC)
	rec := postJSON(t, h, "/ingest", IngestRequest{Readings: []float64{0, 1, 2, 3, 4, 5, 6, 7}})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest under ENOSPC = %d: %s", rec.Code, rec.Body)
	}
	if code, resp := getHealth(t, h, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while degraded = %d, %+v", code, resp)
	}
	code, resp := getHealth(t, h, "/readyz")
	if code != http.StatusServiceUnavailable || resp.Status != "degraded" || resp.Reason == "" {
		t.Fatalf("/readyz while degraded = %d, %+v; want 503 with a reason", code, resp)
	}
	if wal := resp.Subsystems["wal"]; wal.Status != "degraded" || wal.Reason == "" {
		t.Fatalf("readyz wal subsystem while degraded = %+v", wal)
	}
}

// TestRecoveredDefaultStreamWins boots a service over a directory holding a
// previous run's default stream: Recover restores it first, and the fresh
// detector NewWithOptions would adopt must yield to the recovered state.
func TestRecoveredDefaultStreamWins(t *testing.T) {
	dir := t.TempDir()
	first := manager.New(manager.Options{WALDir: dir, Fsync: manager.FsyncNever})
	if err := first.Adopt(DefaultStream, testDetector(t)); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 50; tick++ {
		if _, err := first.Ingest(DefaultStream, []float64{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon the first manager; boot a second service over the same disk.
	mgr := manager.New(manager.Options{WALDir: dir, Fsync: manager.FsyncNever})
	if stats, err := mgr.Recover(); err != nil || stats.Recovered != 1 {
		t.Fatalf("Recover = %+v, %v", stats, err)
	}
	svc := NewWithOptions(testDetector(t), Options{Manager: mgr})
	req := httptest.NewRequest(http.MethodGet, "/status", nil)
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/status = %d: %s", rec.Code, rec.Body)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 50 {
		t.Fatalf("recovered default stream has %d ticks, want 50 (fresh detector clobbered it)", st.Ticks)
	}
}
