package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"cad/internal/alert"
)

// sseBuffer bounds one SSE client's send queue. A subscriber that falls
// this far behind is evicted by the bus instead of stalling publishers.
const sseBuffer = 64

// handleEvents serves GET /v1/streams/{id}/events: a Server-Sent Events
// feed of the stream's alert bus events (anomaly transitions, alarms).
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	if s.alerts == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "alerting is not enabled")
		return
	}
	// Resolve the stream first so an unknown id is a clean 404 rather than
	// a silent, empty feed.
	if _, err := s.mgr.Status(id); err != nil {
		writeStreamError(w, err)
		return
	}
	sub := s.alerts.Subscribe(id, sseBuffer)
	defer sub.Close()
	serveSSE(w, r, sub, nil, nil)
}

// serveSSE streams events to the client as Server-Sent Events until the
// client disconnects, sub ends (bus shutdown, or eviction for falling
// behind) or a write fails. Each message carries the bus sequence number
// as its SSE id, the event type as its event name, and the JSON payload
// webhooks receive as its data. keep, when non-nil, filters sub's events;
// peers, when non-nil, fans in events relayed from other nodes.
func serveSSE(w http.ResponseWriter, r *http.Request, sub *alert.Subscription, keep func(alert.Event) bool, peers <-chan alert.Event) {
	// The controller reaches through the instrumentation wrapper (see
	// statusWriter.Unwrap) for flushing — SSE is useless buffered — and for
	// pushing the write deadline forward per event: the server's
	// WriteTimeout covers whole responses, and an event feed is open-ended.
	// A client that stops reading still gets cut off one deadline after its
	// last successful write.
	rc := http.NewResponseController(w)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		return // the writer cannot stream; the feed is unusable
	}
	ctx := r.Context()
	for {
		var ev alert.Event
		var ok bool
		select {
		case <-ctx.Done():
			return
		case ev, ok = <-sub.C:
			if !ok {
				return
			}
			if keep != nil && !keep(ev) {
				continue
			}
		case ev = <-peers:
		}
		data, err := alert.EncodeEvent(ev)
		if err != nil {
			continue
		}
		_ = rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
			return
		}
		if err := rc.Flush(); err != nil {
			return
		}
	}
}

// CreateSinkRequest is the POST /v1/sinks body. Type picks the sink:
// "webhook" needs URL (Secret optional), "file" needs Path, "slog" needs
// nothing. Queue and Policy ("drop_oldest" or "block") tune the sink's
// delivery queue; zero values take the bus defaults.
type CreateSinkRequest struct {
	Name   string `json:"name"`
	Type   string `json:"type"`
	URL    string `json:"url,omitempty"`
	Secret string `json:"secret,omitempty"`
	Path   string `json:"path,omitempty"`
	Queue  int    `json:"queue,omitempty"`
	Policy string `json:"policy,omitempty"`
}

// SinkListResponse is the GET /v1/sinks payload.
type SinkListResponse struct {
	Sinks []alert.SinkStatus `json:"sinks"`
}

// handleSinks serves the sink collection: GET lists, POST registers.
func (s *Service) handleSinks(w http.ResponseWriter, r *http.Request) {
	if s.alerts == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "alerting is not enabled")
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, SinkListResponse{Sinks: s.alerts.Sinks()})
	case http.MethodPost:
		s.handleCreateSink(w, r)
	default:
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET or POST required")
	}
}

// maxSinkBytes bounds a sink registration body: a name, a type, a URL or
// path, a secret and a retry policy.
const maxSinkBytes = 64 << 10

func (s *Service) handleCreateSink(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSinkBytes))
	dec.DisallowUnknownFields()
	var req CreateSinkRequest
	err := dec.Decode(&req)
	if isBodyTooLarge(err) {
		writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "sink definition exceeds %d bytes", maxSinkBytes)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadJSON, "bad JSON: %v", err)
		return
	}
	var sink alert.Sink
	switch req.Type {
	case "webhook":
		sink, err = alert.NewWebhookSink(req.URL, []byte(req.Secret), 0)
	case "file":
		sink, err = alert.NewFileSink(req.Path, nil)
	case "slog":
		sink = alert.NewSlogSink(s.logger)
	default:
		writeError(w, http.StatusBadRequest, CodeBadSink, "sink type %q: want webhook, file, or slog", req.Type)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadSink, "%v", err)
		return
	}
	cfg := alert.SinkConfig{Queue: req.Queue}
	switch req.Policy {
	case "", "drop_oldest":
	case "block":
		cfg.Policy = alert.Block
	default:
		writeError(w, http.StatusBadRequest, CodeBadSink, "policy %q: want drop_oldest or block", req.Policy)
		return
	}
	if err := s.alerts.AddSink(req.Name, sink, cfg); err != nil {
		if errors.Is(err, alert.ErrSinkExists) {
			writeError(w, http.StatusConflict, CodeSinkExists, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, CodeBadSink, "%v", err)
		return
	}
	for _, st := range s.alerts.Sinks() {
		if st.Name == req.Name {
			writeJSON(w, http.StatusCreated, st)
			return
		}
	}
	writeJSON(w, http.StatusCreated, map[string]string{"name": req.Name})
}

// handleSink serves the sink item route: DELETE unregisters (draining the
// queue with one final attempt per event).
func (s *Service) handleSink(w http.ResponseWriter, r *http.Request) {
	if s.alerts == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "alerting is not enabled")
		return
	}
	if r.Method != http.MethodDelete {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "DELETE required")
		return
	}
	name := r.PathValue("name")
	if err := s.alerts.RemoveSink(name); err != nil {
		if errors.Is(err, alert.ErrSinkNotFound) {
			writeError(w, http.StatusNotFound, CodeSinkNotFound, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// VersionResponse is the GET /version payload, assembled once from the
// binary's embedded build info.
type VersionResponse struct {
	// Version is the main module's version ("devel" for untagged builds).
	Version string `json:"version"`
	// Revision and BuildTime come from the VCS stamp, when present.
	Revision  string `json:"revision,omitempty"`
	BuildTime string `json:"buildTime,omitempty"`
	Module    string `json:"module,omitempty"`
	GoVersion string `json:"goVersion"`
}

var versionOnce = sync.OnceValue(func() VersionResponse {
	v := VersionResponse{Version: "devel", GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	v.Module = bi.Main.Path
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		v.Version = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			v.Revision = kv.Value
		case "vcs.time":
			v.BuildTime = kv.Value
		}
	}
	return v
})

// Version returns the build identity served by GET /version.
func Version() VersionResponse { return versionOnce() }

// versionHeader is the compact form sent as the X-CAD-Version response
// header on stream listings.
func versionHeader() string {
	v := versionOnce()
	if v.Revision != "" {
		rev := v.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return v.Version + "+" + rev
	}
	return v.Version
}

// handleVersion serves GET /version.
func (s *Service) handleVersion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, versionOnce())
}
