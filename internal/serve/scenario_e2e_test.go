package serve

// Scenario-driven serve e2e: one ground-truthed corpus scenario is replayed
// through the /v1 NDJSON ingest path and the anomaly_opened push event must
// land inside the DaE window of the scenario's expected onset — the "stitch
// in time" acceptance path, asserted against a named failure mode instead
// of an ad-hoc random fault.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cad/internal/alert"
	"cad/internal/eval"
	"cad/internal/manager"
	"cad/internal/obs"
	"cad/internal/scenario"
)

func TestScenarioReplayEndToEnd(t *testing.T) {
	// partial-sensor-dropout detects with zero false alarms under the
	// matrix base config (see BENCH_scenarios.json), so the assertions can
	// be strict: no anomaly may open before the fault, and the first one
	// must open inside it.
	s, ok := scenario.ByName("partial-sensor-dropout")
	if !ok {
		t.Fatal("partial-sensor-dropout missing from corpus")
	}
	inst, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	bus, err := alert.NewBus(alert.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	mgr := manager.New(manager.Options{
		Capacity:  4,
		MaxAlarms: 64,
		Registry:  reg,
		Alerts:    bus,
	})
	svc := NewWithOptions(testDetector(t), Options{Manager: mgr, Alerts: bus})
	h := svc.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()
	// Closing the bus ends the SSE handler; it must happen before ts.Close,
	// which waits for in-flight requests — hence registered after it.
	defer bus.Close()

	cfg := scenario.BaseConfig()
	rec := postJSON(t, h, "/v1/streams", CreateStreamRequest{ID: "scn", Sensors: s.Sensors, Config: &cfg})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create stream = %d: %s", rec.Code, rec.Body)
	}
	sse := dialSSE(t, ts.URL+"/v1/streams/scn/events")

	// A synchronous bus subscription is the ground truth on what was
	// pushed; the SSE feed is checked against it at the end.
	truth := bus.Subscribe("scn", 8192)
	defer truth.Close()

	var pushed []alert.Event
	drain := func() {
		for {
			select {
			case ev := <-truth.C:
				pushed = append(pushed, ev)
			default:
				return
			}
		}
	}

	// Replay the full scenario as NDJSON batches of 100 columns.
	col := make([]float64, s.Sensors)
	for at := 0; at < inst.Series.Len(); at += 100 {
		end := at + 100
		if end > inst.Series.Len() {
			end = inst.Series.Len()
		}
		var body strings.Builder
		for p := at; p < end; p++ {
			inst.Series.Column(p, col)
			buf, err := json.Marshal(IngestRequest{Readings: col})
			if err != nil {
				t.Fatal(err)
			}
			body.Write(buf)
			body.WriteByte('\n')
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/streams/scn/ingest", strings.NewReader(body.String()))
		recB := httptest.NewRecorder()
		h.ServeHTTP(recB, req)
		if recB.Code != http.StatusOK {
			t.Fatalf("batch at %d = %d: %s", at, recB.Code, recB.Body)
		}
		var resp BatchIngestResponse
		if err := json.Unmarshal(recB.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Accepted != end-at {
			t.Fatalf("batch at %d accepted %d columns, want %d", at, resp.Accepted, end-at)
		}
		drain()
	}
	drain()

	var opened []alert.Event
	for _, ev := range pushed {
		if ev.Type == alert.TypeAnomalyOpened {
			opened = append(opened, ev)
		}
	}
	if len(opened) == 0 {
		t.Fatal("scenario replay pushed no anomaly_opened event")
	}

	// DaE timing: the first opened anomaly must land inside the fault span
	// (never before the onset — this scenario has a zero false-alarm rate —
	// and no later than one window past its end).
	seg := eval.Segment{Start: s.Onset(), End: s.Injections[0].End}
	first := opened[0]
	if first.Tick < s.Onset() {
		t.Fatalf("anomaly opened at tick %d, before the onset %d", first.Tick, s.Onset())
	}
	if !eval.OnsetHit(seg, first.Tick, cfg.Window.W) {
		t.Fatalf("anomaly opened at tick %d, outside the DaE window of [%d,%d)", first.Tick, seg.Start, seg.End)
	}

	// Localization: the opening alarm names the injected sensors.
	affected := make(map[int]bool)
	for _, v := range s.AffectedSensors() {
		affected[v] = true
	}
	hit := false
	for _, v := range first.Sensors {
		hit = hit || affected[v]
	}
	if !hit {
		t.Fatalf("opened event sensors %v miss the injected set %v", first.Sensors, s.AffectedSensors())
	}

	// The live SSE subscriber hears the same opening, same tick.
	waitFor(t, "anomaly_opened on the SSE feed", func() bool {
		ev, ok := sse.find(alert.TypeAnomalyOpened)
		return ok && ev.AnomalyID == first.AnomalyID && ev.Tick == first.Tick
	})

	// The fault ends inside the series, so the anomaly also closes, and the
	// closed record's span must overlap the injected one.
	var closed alert.Event
	for _, ev := range pushed {
		if ev.Type == alert.TypeAnomalyClosed && ev.AnomalyID == first.AnomalyID {
			closed = ev
		}
	}
	if closed.AnomalyID == 0 {
		t.Fatal("anomaly never closed after the fault ended")
	}
	if closed.End <= seg.Start || closed.Start >= seg.End+cfg.Window.W {
		t.Fatalf("closed anomaly spans [%d,%d), fault is [%d,%d)", closed.Start, closed.End, seg.Start, seg.End)
	}
}

// TestAlarmsEmptySensorsJSON replays correlated-regime-shift, whose fault
// raises abnormal rounds with an empty outlier set (n_r also counts sensors
// leaving it), and requires /alarms to serve their sensors as [], never
// null.
func TestAlarmsEmptySensorsJSON(t *testing.T) {
	s, ok := scenario.ByName("correlated-regime-shift")
	if !ok {
		t.Fatal("correlated-regime-shift missing from corpus")
	}
	inst, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	mgr := manager.New(manager.Options{Capacity: 2, MaxAlarms: 256})
	h := NewWithOptions(testDetector(t), Options{Manager: mgr}).Handler()
	cfg := scenario.BaseConfig()
	if rec := postJSON(t, h, "/v1/streams", CreateStreamRequest{ID: "crs", Sensors: s.Sensors, Config: &cfg}); rec.Code != http.StatusCreated {
		t.Fatalf("create stream = %d: %s", rec.Code, rec.Body)
	}
	for _, body := range ndjsonBatches(t, inst, 200) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams/crs/ingest", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/streams/crs/alarms?limit=256", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("alarms = %d: %s", rec.Code, rec.Body)
	}
	var alarms []map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &alarms); err != nil {
		t.Fatal(err)
	}
	empty := 0
	for _, a := range alarms {
		switch string(a["sensors"]) {
		case "null":
			t.Errorf("alarm at round %s serves \"sensors\":null", a["round"])
		case "[]":
			empty++
		}
	}
	if empty == 0 {
		t.Fatalf("none of %d alarms had an empty outlier set; the test has no power", len(alarms))
	}
}
