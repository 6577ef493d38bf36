package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterGaugeRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs processed.").Add(3)
	r.Counter("jobs_total", "Jobs processed.", Label{"kind", "batch"}).Inc()
	g := r.Gauge("queue_depth", "Pending jobs.")
	g.Set(7)
	g.Add(-2.5)

	out := render(t, r)
	for _, want := range []string{
		"# HELP jobs_total Jobs processed.",
		"# TYPE jobs_total counter",
		"jobs_total 3",
		`jobs_total{kind="batch"} 1`,
		"# TYPE queue_depth gauge",
		"queue_depth 4.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "")
	if a != b {
		t.Fatal("same name+labels should return the same counter")
	}
	c := r.Counter("x_total", "", Label{"k", "v"})
	if a == c {
		t.Fatal("different labels should return a different series")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name should panic")
		}
	}()
	r.Gauge("dual", "")
}

func TestHistogramRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := render(t, r)
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 56.05",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramLabeledBuckets(t *testing.T) {
	r := NewRegistry()
	r.Histogram("d_seconds", "", []float64{1}, Label{"path", "/a"}).Observe(0.5)
	out := render(t, r)
	for _, want := range []string{
		`d_seconds_bucket{path="/a",le="1"} 1`,
		`d_seconds_bucket{path="/a",le="+Inf"} 1`,
		`d_seconds_sum{path="/a"} 0.5`,
		`d_seconds_count{path="/a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscapingAndOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", Label{"b", "x"}, Label{"a", `quo"te\slash` + "\nnl"}).Inc()
	out := render(t, r)
	want := `esc_total{a="quo\"te\\slash\nnl",b="x"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("output missing %q:\n%s", want, out)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total", "").Inc()
				r.Gauge("g", "").Add(1)
				r.Histogram("h_seconds", "", []float64{0.5}).Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g", "").Value(); got != 8000 {
		t.Errorf("gauge = %v, want 8000", got)
	}
	if got := r.Histogram("h_seconds", "", nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "ok_total 1") {
		t.Errorf("body missing counter: %s", buf[:n])
	}

	req, _ := http.NewRequest(http.MethodPost, srv.URL, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d, want 405", resp2.StatusCode)
	}
}

// TestLabelledLookupAllocs pins the allocations of looking up an existing
// labelled series, which the HTTP middleware does on every request: the
// sorted copy of its unsorted labels and the series key, and no escaper.
func TestLabelledLookupAllocs(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "", Label{"path", "/ingest"}, Label{"method", "POST"}, Label{"code", "200"})
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("req_total", "", Label{"path", "/ingest"}, Label{"method", "POST"}, Label{"code", "200"}).Inc()
	})
	if allocs > 2 {
		t.Fatalf("labelled lookup allocates %v times, want at most 2", allocs)
	}
}
