package alert

import (
	"bytes"
	"context"
	"crypto/hmac"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedServer runs an httptest.Server whose responses follow a script:
// "ok" answers 200, "500"/"503" answer that status, "hang" sleeps past the
// client timeout. Once the script is exhausted every request answers 200.
type scriptedServer struct {
	mu       sync.Mutex
	script   []string
	requests []Event
	sigs     []string
	srv      *httptest.Server
}

func newScriptedServer(t *testing.T, script ...string) *scriptedServer {
	s := &scriptedServer{script: script}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		s.mu.Lock()
		step := "ok"
		if len(s.script) > 0 {
			step = s.script[0]
			s.script = s.script[1:]
		}
		s.mu.Unlock()
		switch step {
		case "500":
			w.WriteHeader(http.StatusInternalServerError)
			return
		case "503":
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		case "hang":
			time.Sleep(300 * time.Millisecond)
			return
		}
		ev, err := DecodeEvent(body)
		if err != nil {
			t.Errorf("webhook body: %v", err)
		}
		s.mu.Lock()
		s.requests = append(s.requests, ev)
		s.sigs = append(s.sigs, r.Header.Get(SignatureHeader))
		s.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *scriptedServer) delivered() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.requests))
	copy(out, s.requests)
	return out
}

// fastRetry keeps test wall-clock short while exercising real sleeps.
var fastRetry = RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, Jitter: -1}

// TestWebhookFlakyDelivery scripts two 5xx responses before success and
// asserts the retry metrics — not just logs — plus bounded backoff via the
// sleep hook.
func TestWebhookFlakyDelivery(t *testing.T) {
	srv := newScriptedServer(t, "500", "503")
	b, err := NewBus(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var sleeps []time.Duration
	var sleepMu sync.Mutex
	b.sleepHook = func(d time.Duration) {
		sleepMu.Lock()
		sleeps = append(sleeps, d)
		sleepMu.Unlock()
	}
	sink, err := NewWebhookSink(srv.srv.URL, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddSink("hook", sink, SinkConfig{Retry: fastRetry, Breaker: BreakerPolicy{Threshold: 10}}); err != nil {
		t.Fatal(err)
	}
	b.Publish(Event{Stream: "s", Type: TypeAlarm, Round: 1})
	// The sink counts the delivery after the server has answered it, so
	// wait on the counter, not on the server.
	waitFor(t, "delivery after retries", func() bool {
		return counterValue(b.reg, "cad_alerts_delivered_total", "hook") == 1
	})
	if n := len(srv.delivered()); n != 1 {
		t.Fatalf("server received %d deliveries, want 1", n)
	}
	if got := counterValue(b.reg, "cad_alerts_retried_total", "hook"); got != 2 {
		t.Fatalf("cad_alerts_retried_total = %d, want 2", got)
	}
	if got := counterValue(b.reg, "cad_alerts_dead_lettered_total", "hook"); got != 0 {
		t.Fatalf("cad_alerts_dead_lettered_total = %d, want 0", got)
	}
	// Backoff is bounded: every sleep ≤ MaxBackoff (jitter disabled), and
	// the sequence grows exponentially from the base.
	sleepMu.Lock()
	defer sleepMu.Unlock()
	if len(sleeps) != 2 {
		t.Fatalf("observed %d retry sleeps, want 2", len(sleeps))
	}
	for i, d := range sleeps {
		if d > fastRetry.MaxBackoff {
			t.Fatalf("sleep %d = %v exceeds MaxBackoff %v", i, d, fastRetry.MaxBackoff)
		}
	}
	if sleeps[0] != time.Millisecond || sleeps[1] != 2*time.Millisecond {
		t.Fatalf("backoff sequence = %v, want [1ms 2ms]", sleeps)
	}
}

// TestWebhookTimeoutIsRetryable scripts a response that outlives the
// client timeout; the attempt must fail and be retried like a 5xx.
func TestWebhookTimeoutIsRetryable(t *testing.T) {
	srv := newScriptedServer(t, "hang")
	b, err := NewBus(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sink, err := NewWebhookSink(srv.srv.URL, nil, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddSink("hook", sink, SinkConfig{Retry: fastRetry, Breaker: BreakerPolicy{Threshold: 10}}); err != nil {
		t.Fatal(err)
	}
	b.Publish(Event{Stream: "s", Type: TypeAlarm})
	waitFor(t, "delivery after timeout retry", func() bool { return len(srv.delivered()) == 1 })
	if got := counterValue(b.reg, "cad_alerts_retried_total", "hook"); got != 1 {
		t.Fatalf("cad_alerts_retried_total = %d, want 1", got)
	}
}

// TestWebhookBreakerOpensAndRecovers drives the breaker through
// closed → open → half-open(fail) → open → half-open(success) → closed and
// asserts the state gauge at each stage.
func TestWebhookBreakerOpensAndRecovers(t *testing.T) {
	// Script: 2 failures open the breaker (threshold 2); the half-open
	// probe fails (reopen); the next probe succeeds (close).
	srv := newScriptedServer(t, "500", "500", "500")
	b, err := NewBus(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var states []float64
	var mu sync.Mutex
	b.sleepHook = func(time.Duration) {
		mu.Lock()
		states = append(states, gaugeValue(b.reg, "cad_alert_breaker_state", "hook"))
		mu.Unlock()
	}
	sink, err := NewWebhookSink(srv.srv.URL, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SinkConfig{
		Retry:   RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, Jitter: -1},
		Breaker: BreakerPolicy{Threshold: 2, Cooldown: 2 * time.Millisecond},
	}
	if err := b.AddSink("hook", sink, cfg); err != nil {
		t.Fatal(err)
	}
	b.Publish(Event{Stream: "s", Type: TypeAlarm})
	// The sink counts the delivery after it has recorded the success on the
	// breaker; the server sees the request before that.
	waitFor(t, "delivery through the breaker", func() bool {
		return counterValue(b.reg, "cad_alerts_delivered_total", "hook") == 1
	})
	if n := len(srv.delivered()); n != 1 {
		t.Fatalf("server received %d deliveries, want 1", n)
	}
	if got := gaugeValue(b.reg, "cad_alert_breaker_state", "hook"); got != BreakerClosed {
		t.Fatalf("final breaker state = %v, want closed (%d)", got, BreakerClosed)
	}
	// The breaker must have been observed open at least twice (after the
	// threshold trip and after the failed half-open probe).
	mu.Lock()
	opens := 0
	for _, s := range states {
		if s == BreakerOpen {
			opens++
		}
	}
	mu.Unlock()
	if opens < 2 {
		t.Fatalf("breaker observed open %d times during sleeps (%v), want ≥ 2", opens, states)
	}
	st := b.Sinks()
	if len(st) != 1 || st[0].Breaker != "closed" {
		t.Fatalf("sink status breaker = %+v, want closed", st)
	}
}

// TestWebhookDeadLetterAndDrain exhausts retries against a dead endpoint,
// asserts the event lands in the disk-backed DLQ, then restores the
// endpoint and drains the DLQ exactly once.
func TestWebhookDeadLetterAndDrain(t *testing.T) {
	var healthy atomic.Bool
	var got []Event
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		body, _ := io.ReadAll(r.Body)
		ev, _ := DecodeEvent(body)
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	}))
	defer srv.Close()

	dir := t.TempDir()
	newBus := func() *Bus {
		b, err := NewBus(Options{DLQDir: filepath.Join(dir, "dlq")})
		if err != nil {
			t.Fatal(err)
		}
		sink, err := NewWebhookSink(srv.URL, nil, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cfg := SinkConfig{
			Retry:   RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, Jitter: -1},
			Breaker: BreakerPolicy{Threshold: 100},
		}
		if err := b.AddSink("hook", sink, cfg); err != nil {
			t.Fatal(err)
		}
		return b
	}

	b := newBus()
	b.Publish(Event{Stream: "s", Type: TypeAnomalyOpened, AnomalyID: 1})
	waitFor(t, "dead-lettering", func() bool {
		return counterValue(b.reg, "cad_alerts_dead_lettered_total", "hook") == 1
	})
	if n := b.DLQLen(); n != 1 {
		t.Fatalf("DLQ holds %d records, want 1", n)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart" delivery: new bus over the same DLQ directory, endpoint
	// healthy again. The drain must redeliver the event exactly once.
	healthy.Store(true)
	b2 := newBus()
	defer b2.Close()
	n, err := b2.DrainDLQ()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("DrainDLQ re-enqueued %d, want 1", n)
	}
	waitFor(t, "redelivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	mu.Lock()
	if got[0].DedupKey() != "s,1,anomaly_opened" {
		t.Fatalf("redelivered dedup key = %q", got[0].DedupKey())
	}
	mu.Unlock()
	if n := b2.DLQLen(); n != 0 {
		t.Fatalf("DLQ holds %d records after drain, want 0", n)
	}
	// A second drain finds nothing — the backlog was consumed exactly once.
	if n, err := b2.DrainDLQ(); err != nil || n != 0 {
		t.Fatalf("second DrainDLQ = (%d, %v), want (0, nil)", n, err)
	}
}

// TestWebhookHMACSignature verifies the X-CAD-Signature header against a
// receiver-side recomputation over the raw body.
func TestWebhookHMACSignature(t *testing.T) {
	secret := []byte("shared-secret")
	var sigOK atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		want := Sign(secret, body)
		sigOK.Store(hmac.Equal([]byte(want), []byte(r.Header.Get(SignatureHeader))))
	}))
	defer srv.Close()
	b, err := NewBus(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sink, err := NewWebhookSink(srv.URL, secret, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddSink("hook", sink, SinkConfig{Retry: fastRetry}); err != nil {
		t.Fatal(err)
	}
	b.Publish(Event{Stream: "s", Type: TypeAnomalyOpened, AnomalyID: 7, Sensors: []int{3, 1}})
	waitFor(t, "signed delivery", func() bool {
		return counterValue(b.reg, "cad_alerts_delivered_total", "hook") == 1
	})
	if !sigOK.Load() {
		t.Fatal("X-CAD-Signature did not verify against the body")
	}
}

func TestWebhookURLValidation(t *testing.T) {
	for _, bad := range []string{"", "not-a-url", "ftp://x/y", "http://"} {
		if _, err := NewWebhookSink(bad, nil, 0); err == nil {
			t.Fatalf("NewWebhookSink(%q) succeeded", bad)
		}
	}
	if _, err := NewWebhookSink("https://alerts.example.com/hook", nil, 0); err != nil {
		t.Fatalf("valid URL rejected: %v", err)
	}
}

func TestFileSinkNDJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.ndjson")
	b, err := NewBus(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewFileSink(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddSink("file", sink, SinkConfig{}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		b.Publish(Event{Stream: "s", Type: TypeAlarm, Round: i})
	}
	waitFor(t, "file deliveries", func() bool {
		return counterValue(b.reg, "cad_alerts_delivered_total", "file") == 3
	})
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d NDJSON lines, want 3", len(lines))
	}
	for i, line := range lines {
		ev, err := DecodeEvent(line)
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if ev.Round != i+1 {
			t.Fatalf("line %d has round %d", i+1, ev.Round)
		}
	}
}

func TestSlogSinkDelivers(t *testing.T) {
	s := NewSlogSink(nil)
	if err := s.Deliver(context.Background(), Event{Stream: "s", Type: TypeAlarm}); err != nil {
		t.Fatal(err)
	}
	if s.Kind() != "slog" {
		t.Fatalf("kind = %q", s.Kind())
	}
}
