package serve

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cad/internal/alert"
	"cad/internal/cluster"
	"cad/internal/core"
	"cad/internal/mts"
	"cad/internal/obs"
)

func scrapeMetrics(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	return rec.Body.String()
}

func TestMetricsEndpoint(t *testing.T) {
	det := testDetector(t)
	svc := New(det, 10)
	h := svc.Handler()
	rng := rand.New(rand.NewSource(2))

	for tick := 0; tick < 120; tick++ {
		rec := postJSON(t, h, "/ingest", IngestRequest{Readings: column(rng, tick, false)})
		if rec.Code != http.StatusOK {
			t.Fatalf("tick %d: status %d: %s", tick, rec.Code, rec.Body)
		}
	}

	out := scrapeMetrics(t, h)
	// 120 ticks at w=30, s=3 complete (120-30)/3+1 = 31 rounds.
	for _, want := range []string{
		"# TYPE cad_tsg_build_seconds histogram",
		`cad_tsg_build_seconds_count{stream="default"} 31`,
		`cad_advance_seconds_count{stream="default"} 31`,
		`cad_rounds_total{stream="default"} 31`,
		"# TYPE cad_alarms_total counter",
		"# TYPE cad_history_mu gauge",
		"# TYPE cad_history_sigma gauge",
		"# TYPE cad_streams_resident gauge",
		"# TYPE cad_offheap_bytes gauge",
		`http_requests_total{code="200",method="POST",path="/ingest"} 120`,
		`http_request_duration_seconds_count{path="/ingest"} 120`,
		"cad_ingest_decode_seconds_count 120",
		"# TYPE http_requests_in_flight gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every round ran Louvain either warm or cold.
	var louvain int
	for _, path := range []string{"cold", "warm"} {
		var c int
		series := fmt.Sprintf(`cad_louvain_seconds_count{path=%q,stream="default"} `, path)
		if i := strings.Index(out, series); i < 0 {
			t.Errorf("/metrics missing %s", series)
		} else if _, err := fmt.Sscan(out[i+len(series):], &c); err != nil {
			t.Errorf("%s: %v", series, err)
		}
		louvain += c
	}
	if louvain != 31 {
		t.Errorf("cad_louvain_seconds counts %d rounds, want 31", louvain)
	}
}

func TestFirstNonFinite(t *testing.T) {
	cases := []struct {
		xs   []float64
		want int
	}{
		{nil, -1},
		{[]float64{1, 2, 3}, -1},
		{[]float64{1, math.NaN(), 3}, 1},
		{[]float64{math.Inf(1)}, 0},
		{[]float64{0, 0, math.Inf(-1)}, 2},
	}
	for i, c := range cases {
		if got := firstNonFinite(c.xs); got != c.want {
			t.Errorf("case %d: firstNonFinite = %d, want %d", i, got, c.want)
		}
	}
}

func TestIngestRejectsNonFinite(t *testing.T) {
	det := testDetector(t)
	svc := New(det, 10)
	h := svc.Handler()

	// Over JSON a non-finite literal cannot survive decoding: it is
	// rejected before reaching the streamer, as a bad-JSON 400.
	for i, body := range []string{
		`{"readings":[0,0,0,1e999,0,0,0,0]}`,
		`{"readings":[0,0,0,-1e999,0,0,0,0]}`,
		`{nope`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400: %s", i, rec.Code, rec.Body)
		}
	}
	// Rejected columns must not consume ticks or touch the streamer.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 0 {
		t.Errorf("ticks = %d after only rejected columns, want 0", st.Ticks)
	}
	out := scrapeMetrics(t, h)
	if want := `cad_ingest_rejected_total{reason="badjson",stream="default"} 3`; !strings.Contains(out, want) {
		t.Errorf("/metrics missing %q:\n%s", want, out)
	}
}

// TestIngestRejectsNullReadings: encoding/json would read a null reading
// as 0 (or, under a repeated key, as the earlier value), so a collector's
// missing sample would enter the correlation window as a real reading. The
// whole request is refused, naming column and sensor, on the scanner's
// path and after a fallback to encoding/json.
func TestIngestRejectsNullReadings(t *testing.T) {
	det := testDetector(t)
	svc := New(det, 10)
	h := svc.Handler()

	for body, want := range map[string]string{
		`{"readings":[0,0,null,0,0,0,0,0]}`:                                     "column 0: null reading for sensor 2",
		"{\"readings\":[0,0,0,0,0,0,0,0]}\n{\"readings\":[0,0,0,0,0,null,0,0]}": "column 1: null reading for sensor 5",
		`{"Readings":[null,0,0,0,0,0,0,0]}`:                                     "column 0: null reading for sensor 0",
		`{"x":0,"readings":[0,0,0,0,0,0,0,0]}{"readings":[0,null,0,0,0,0,0,0]}`: "column 1: null reading for sensor 1",
		`{"readings":[0,0,0,0,0,0,0,0],"readings":[0,0,0,null,0,0,0,0]}`:        "column 0: null reading for sensor 3",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)))
		wantEnvelope(t, rec, http.StatusBadRequest, CodeBadReadings)
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s: error should say %q: %s", body, want, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 0 {
		t.Errorf("ticks = %d after only rejected columns, want 0", st.Ticks)
	}
	out := scrapeMetrics(t, h)
	if want := `cad_ingest_rejected_total{reason="null",stream="default"} 5`; !strings.Contains(out, want) {
		t.Errorf("/metrics missing %q:\n%s", want, out)
	}
}

// filler is an endless run of one byte.
type filler byte

func (f filler) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestBodyTooLarge: the ingest, sink, create-stream, detect and handoff
// routes read at most their byte limit of a body and answer 413
// body_too_large past it.
func TestBodyTooLarge(t *testing.T) {
	svc, _ := newAlertService(t, alert.Options{})
	h := svc.Handler()

	// A valid column padded past the limit: the decoder reads the padding
	// without holding it, and nothing is ingested.
	body := io.MultiReader(strings.NewReader(`{"readings":[0,0,0,0,0,0,0,0]}`),
		io.LimitReader(filler(' '), maxIngestBytes))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams/default/ingest", body))
	wantEnvelope(t, rec, http.StatusRequestEntityTooLarge, CodeBodyTooLarge)
	if st, err := svc.mgr.Status(DefaultStream); err != nil || st.Ticks != 0 {
		t.Errorf("ticks = %d (%v) after an oversize body, want 0", st.Ticks, err)
	}
	// At the limit the same body is ingested.
	body = io.MultiReader(strings.NewReader(`{"readings":[0,0,0,0,0,0,0,0]}`),
		io.LimitReader(filler(' '), maxIngestBytes-30))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams/default/ingest", body))
	if rec.Code != http.StatusOK {
		t.Errorf("body at the limit: status %d: %s", rec.Code, rec.Body)
	}

	sink := `{"name":"` + strings.Repeat("x", maxSinkBytes) + `","type":"slog"}`
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sinks", strings.NewReader(sink)))
	wantEnvelope(t, rec, http.StatusRequestEntityTooLarge, CodeBodyTooLarge)

	create := `{"id":"` + strings.Repeat("x", maxCreateBytes) + `","sensors":8}`
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams", strings.NewReader(create)))
	wantEnvelope(t, rec, http.StatusRequestEntityTooLarge, CodeBodyTooLarge)

	// A CSV header followed by blank lines, which the CSV reader skips.
	for _, path := range []string{"/v1/detect", "/detect"} {
		body := io.MultiReader(strings.NewReader("a,b,c,d,e,f,g,h\n"), io.LimitReader(filler('\n'), maxIngestBytes))
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		wantEnvelope(t, rec, http.StatusRequestEntityTooLarge, CodeBodyTooLarge)
	}

	cl, err := cluster.New(cluster.Config{Self: "a", Advertise: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	svc.cluster = cl
	// A cluster member's router buffers only the bound to learn the id;
	// the handler still sees the whole body.
	rec = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams", strings.NewReader(create)))
	wantEnvelope(t, rec, http.StatusRequestEntityTooLarge, CodeBodyTooLarge)
	exp, err := svc.mgr.Export(DefaultStream)
	if err != nil {
		t.Fatal(err)
	}
	var bundle bytes.Buffer
	if err := gob.NewEncoder(&bundle).Encode(&exp); err != nil {
		t.Fatal(err)
	}
	defer func(n int64) { maxHandoffBytes = n }(maxHandoffBytes)
	maxHandoffBytes = int64(bundle.Len() / 2)
	rec = httptest.NewRecorder()
	svc.handleClusterHandoff(rec, httptest.NewRequest(http.MethodPost, cluster.HandoffPath, &bundle))
	wantEnvelope(t, rec, http.StatusRequestEntityTooLarge, CodeBodyTooLarge)
}

func TestDetectRejectsNonFiniteCSV(t *testing.T) {
	det := testDetector(t)
	svc := New(det, 10)
	h := svc.Handler()

	// CSV is the path whose parser accepts NaN/Inf tokens verbatim.
	var b strings.Builder
	b.WriteString("a,b\n")
	for i := 0; i < 40; i++ {
		if i == 20 {
			b.WriteString("NaN,1\n")
			continue
		}
		fmt.Fprintf(&b, "%d,%d\n", i%7, (i+3)%5)
	}
	req := httptest.NewRequest(http.MethodPost, "/detect", strings.NewReader(b.String()))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "non-finite") {
		t.Errorf("error should mention non-finite readings: %s", rec.Body)
	}
	out := scrapeMetrics(t, h)
	if want := `cad_ingest_rejected_total{reason="nonfinite",stream="default"} 1`; !strings.Contains(out, want) {
		t.Errorf("/metrics missing %q:\n%s", want, out)
	}
}

// TestServiceConcurrency hammers every endpoint from parallel clients; run
// under -race it proves the service's locking and the registry's atomics.
func TestServiceConcurrency(t *testing.T) {
	det := testDetector(t)
	svc := New(det, 32)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	get := func(path string) {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}
	for _, path := range []string{"/status", "/alarms", "/anomalies", "/metrics"} {
		wg.Add(1)
		go get(path)
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 60; i++ {
				buf, _ := json.Marshal(IngestRequest{Readings: column(rng, i, false)})
				resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(string(buf)))
				if err != nil {
					t.Errorf("POST /ingest: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()

	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 4*60 {
		t.Errorf("ticks = %d, want %d", st.Ticks, 4*60)
	}
}

// TestStreamedWithTransientErrorsMatchesBatch streams a series through
// /ingest while interleaving rejected columns (NaN readings and wrong
// arity) and checks the per-round results still match the batch Detect path
// on the clean series: transient boundary errors must leave the streaming
// state untouched.
func TestStreamedWithTransientErrorsMatchesBatch(t *testing.T) {
	newDet := func() *core.Detector {
		t.Helper()
		cfg := core.Config{
			Window: mts.Windowing{W: 30, S: 3}, K: 3, Tau: 0.4, Theta: 0.2,
			Eta: 3, SigmaFloor: 0.5, MinHistory: 8, RCMode: core.RCSliding, RCHorizon: 5,
		}
		det, err := core.NewDetector(8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return det
	}

	const ticks = 360
	rng := rand.New(rand.NewSource(3))
	cols := make([][]float64, ticks)
	rows := make([][]float64, 8)
	for i := range rows {
		rows[i] = make([]float64, ticks)
	}
	for tick := 0; tick < ticks; tick++ {
		cols[tick] = column(rng, tick, tick >= 180 && tick < 270)
		for i, v := range cols[tick] {
			rows[i][tick] = v
		}
	}
	series, err := mts.New(rows, nil)
	if err != nil {
		t.Fatal(err)
	}

	batchRes, err := newDet().Detect(series)
	if err != nil {
		t.Fatal(err)
	}

	svc := New(newDet(), 1024)
	h := svc.Handler()
	var got []IngestResponse
	for tick := 0; tick < ticks; tick++ {
		// Interleave columns the boundary must reject without side effects.
		if tick%11 == 5 {
			req := httptest.NewRequest(http.MethodPost, "/ingest",
				strings.NewReader(`{"readings":[0,0,0,1e999,0,0,0,0]}`))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("tick %d: overflow column: status %d, want 400", tick, rec.Code)
			}
		}
		if tick%17 == 2 {
			if rec := postJSON(t, h, "/ingest", IngestRequest{Readings: []float64{1, 2}}); rec.Code != http.StatusBadRequest {
				t.Fatalf("tick %d: short column: status %d, want 400", tick, rec.Code)
			}
		}
		rec := postJSON(t, h, "/ingest", IngestRequest{Readings: cols[tick]})
		if rec.Code != http.StatusOK {
			t.Fatalf("tick %d: status %d: %s", tick, rec.Code, rec.Body)
		}
		var resp IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.RoundCompleted {
			got = append(got, resp)
		}
	}

	if len(got) != len(batchRes.Rounds) {
		t.Fatalf("streamed %d rounds, batch %d", len(got), len(batchRes.Rounds))
	}
	for i, rep := range batchRes.Rounds {
		if got[i].Abnormal != rep.Abnormal {
			t.Errorf("round %d: streamed abnormal=%v batch=%v", i, got[i].Abnormal, rep.Abnormal)
		}
		if rep.Abnormal && got[i].Variations != rep.Variations {
			t.Errorf("round %d: streamed n_r=%d batch=%d", i, got[i].Variations, rep.Variations)
		}
	}
	for _, reason := range []string{"badjson", "stream"} {
		if fails := svc.Registry().Counter("cad_ingest_rejected_total", "",
			obs.Label{Name: "reason", Value: reason},
			obs.Label{Name: "stream", Value: DefaultStream}).Value(); fails == 0 {
			t.Errorf("expected %s rejections to be counted", reason)
		}
	}
}

func TestMetricsMethodNotAllowed(t *testing.T) {
	svc := New(testDetector(t), 10)
	h := svc.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: status %d, want 405", rec.Code)
	}
	out := scrapeMetrics(t, h)
	if want := fmt.Sprintf("http_requests_total{code=%q,method=%q,path=%q} 1", "405", "POST", "/metrics"); !strings.Contains(out, want) {
		t.Errorf("/metrics missing %q:\n%s", want, out)
	}
}
