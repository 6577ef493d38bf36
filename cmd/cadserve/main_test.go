package main

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cad/internal/core"
	"cad/internal/mts"
	"cad/internal/serve"
)

func writeWarmup(t *testing.T, path string, sensors, length int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	s := mts.Zeros(sensors, length)
	for tick := 0; tick < length; tick++ {
		a := math.Sin(2 * math.Pi * float64(tick) / 25)
		for i := 0; i < sensors; i++ {
			s.Set(i, tick, a*(1+0.2*float64(i%4))+0.05*rng.NormFloat64())
		}
	}
	if err := s.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
}

func TestSetupWithWarmup(t *testing.T) {
	dir := t.TempDir()
	warm := filepath.Join(dir, "warm.csv")
	writeWarmup(t, warm, 8, 600)
	det, err := setup(0, warm, "", 40, 4, 3, 0.4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if det.Sensors() != 8 {
		t.Errorf("sensors = %d (should derive from warm-up)", det.Sensors())
	}
	if det.Rounds() == 0 {
		t.Error("warm-up did not run")
	}
	if det.Config().Window.W != 40 || det.Config().K != 3 {
		t.Errorf("config overrides lost: %+v", det.Config())
	}
}

func TestSetupWithoutWarmup(t *testing.T) {
	det, err := setup(10, "", "", 0, 0, 0, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if det.Sensors() != 10 {
		t.Errorf("setup: sensors=%d", det.Sensors())
	}
	if det.Rounds() != 0 {
		t.Error("no warm-up expected")
	}
}

func TestSetupErrors(t *testing.T) {
	if _, err := setup(0, "", "", 0, 0, 0, 0.5, 0.3); err == nil {
		t.Error("no sensors and no warm-up should error")
	}
	if _, err := setup(1, "", "", 0, 0, 0, 0.5, 0.3); err == nil {
		t.Error("1 sensor should error")
	}
	if _, err := setup(0, "/nonexistent.csv", "", 0, 0, 0, 0.5, 0.3); err == nil {
		t.Error("missing warm-up file should error")
	}
	dir := t.TempDir()
	warm := filepath.Join(dir, "warm.csv")
	writeWarmup(t, warm, 8, 300)
	if _, err := setup(5, warm, "", 0, 0, 0, 0.5, 0.3); err == nil {
		t.Error("sensor-count mismatch should error")
	}
	// Invalid windowing flows through as a config error.
	if _, err := setup(8, "", "", 4, 4, 0, 0.5, 0.3); err == nil {
		t.Error("w == s should error")
	}
}

func TestNewServerRouting(t *testing.T) {
	det, err := setup(8, "", "", 0, 0, 0, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewWithOptions(det, serve.Options{})
	srv := newServer(svc, ":0", false)

	rec := httptest.NewRecorder()
	srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/status: status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `http_requests_total{code="200",method="GET",path="/status"} 1`) {
		t.Error("/metrics missing request metrics")
	}

	// pprof must be opt-in.
	rec = httptest.NewRecorder()
	srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code == http.StatusOK {
		t.Error("/debug/pprof/ should not be mounted without -pprof")
	}

	det2, err := setup(8, "", "", 0, 0, 0, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	srv = newServer(serve.NewWithOptions(det2, serve.Options{}), ":0", true)
	rec = httptest.NewRecorder()
	srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/ with -pprof: status %d", rec.Code)
	}
	if srv.ReadTimeout == 0 || srv.WriteTimeout == 0 || srv.ReadHeaderTimeout == 0 {
		t.Error("server timeouts must be set")
	}
}

func TestSetupWithConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "detector.json")
	doc := `{"window":{"w":50,"s":5},"k":4,"tau":0.45,"theta":0.25,"eta":3,
	         "sigmaFloor":0.5,"minHistory":8,"rcMode":"cumulative"}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	det, err := setup(8, "", path, 0, 0, 0, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := det.Config()
	if cfg.Window.W != 50 || cfg.Window.S != 5 || cfg.K != 4 || cfg.RCMode != core.RCCumulative {
		t.Errorf("config file not applied: %+v", cfg)
	}
	// A typoed field fails loudly instead of running with defaults.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"windw":{"w":50,"s":5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := setup(8, "", bad, 0, 0, 0, 0.5, 0.3); err == nil {
		t.Error("unknown config field should error")
	}
	if _, err := setup(8, "", filepath.Join(dir, "missing.json"), 0, 0, 0, 0.5, 0.3); err == nil {
		t.Error("missing config file should error")
	}
}

func TestNewManagerFromFlags(t *testing.T) {
	dir := t.TempDir()
	mgr := newManager(serverOptions{capacity: 2, idleTTL: time.Hour, snapdir: dir}, nil, nil, nil)
	det, err := setup(8, "", "", 0, 0, 0, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewWithOptions(det, serve.Options{Manager: mgr})
	// Fill past capacity through the API: with a snapshot dir the overflow
	// is evicted, not rejected.
	h := svc.Handler()
	for _, id := range []string{"a", "b"} {
		body := strings.NewReader(`{"id":"` + id + `","sensors":8}`)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams", body))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create %s = %d: %s", id, rec.Code, rec.Body)
		}
	}
	if mgr.Len() != 2 {
		t.Errorf("resident = %d, want capacity 2", mgr.Len())
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Errorf("snapshot dir entries = %v (%v), want 1 eviction", entries, err)
	}
}

func TestSweepInterval(t *testing.T) {
	cases := []struct {
		ttl, want time.Duration
	}{
		{time.Second, 10 * time.Second},
		{2 * time.Minute, 30 * time.Second},
		{24 * time.Hour, 5 * time.Minute},
	}
	for _, c := range cases {
		if got := sweepInterval(c.ttl); got != c.want {
			t.Errorf("sweepInterval(%v) = %v, want %v", c.ttl, got, c.want)
		}
	}
}
