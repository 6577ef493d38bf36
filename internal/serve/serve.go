// Package serve exposes a multi-tenant fleet of streaming CAD detectors
// over a versioned HTTP API: operators create named streams, data
// collectors POST columns of sensor readings (singly or as NDJSON
// batches), and dashboards poll per-stream status, alarms, and assembled
// anomalies. It is the ingestion front-end cmd/cadserve wires up, built on
// internal/manager's sharded locking so traffic to one stream never
// serializes behind a detection round on another.
//
// Versioned API (one stream per tenant, {id} is 1–64 chars of [A-Za-z0-9._-]):
//
//	POST   /v1/streams                    {"id","sensors","config"?}  → 201 (200 when restored from a snapshot)
//	GET    /v1/streams                                                → list of known streams (active + snapshotted)
//	POST   /v1/streams/{id}/ingest        {"readings":[…]} or NDJSON  → ingest result(s)
//	GET    /v1/streams/{id}               alias of …/status           → stream health
//	GET    /v1/streams/{id}/status                                    → stream health
//	GET    /v1/streams/{id}/alarms?limit=N&offset=M                   → recent abnormal rounds (offset pages backwards)
//	GET    /v1/streams/{id}/anomalies?limit=N&offset=M                → assembled anomalies (same paging as /alarms)
//	GET    /v1/streams/{id}/events                                    → live SSE feed of alert events
//	DELETE /v1/streams/{id}                                           → remove the stream and its snapshot
//	POST   /v1/sinks                      {"name","type",…}           → register an alert sink (201)
//	GET    /v1/sinks                                                  → registered sinks with delivery stats
//	DELETE /v1/sinks/{name}                                           → unregister a sink (drains its queue)
//	GET    /v1/incidents?limit&offset&state=open|closed               → fleet-level incidents, newest first
//	GET    /v1/incidents/{id}                                         → one incident with onset-ordered suspects
//	GET    /v1/incidents/events                                       → live SSE feed of incident transitions
//	GET    /v1/events                                                 → fleet-wide SSE feed (fans in peers when clustered)
//	GET    /v1/cluster                                                → membership, ring size, per-peer liveness
//	POST   /v1/cluster/handoff            migration bundle            → peer-to-peer stream adoption (internal)
//	POST   /v1/detect                     CSV body                    → one-shot batch detection
//	GET    /version                                                   → build identity (module version, VCS revision)
//
// The SSE and sink routes answer 404 unless the service was built with an
// alert bus (Options.Alerts); the incident routes answer 404 unless a fleet
// correlator is wired (Options.Fleet, or a manager carrying one). GET
// /v1/streams also reports the build in an X-CAD-Version header.
//
// When the service is built with a cluster (Options.Cluster), every node
// answers the full API for any stream: stream-scoped writes and reads are
// transparently proxied to the consistent-hash owner, collection reads
// (/v1/streams, alarms, anomalies, incidents) scatter-gather across the
// live membership, and /v1/events fans in every peer's feed. Responses name
// the node that actually served them in an X-CAD-Node header; forwarded
// requests carry X-CAD-Forwarded-By (single-hop — a receiver always serves
// locally) and scatter responses list unreachable peers in X-CAD-Partial.
// The "default" stream is node-local and never routed. An unreachable owner
// yields 503 cluster_unavailable; an undecodable migration bundle on
// /v1/cluster/handoff yields 400 bad_handoff.
//
// The legacy unversioned routes (/ingest, /status, /alarms, /anomalies,
// /detect) are deprecated thin delegates to the /v1 handlers on the
// "default" stream: single-detector deployments keep working unchanged,
// but every response carries Deprecation/Sunset/Link headers naming the
// /v1 successor and hits are counted in cad_legacy_requests_total (the
// removal horizon is documented in README). GET /metrics serves the
// Prometheus text exposition. GET /healthz reports liveness (always 200
// while the process serves) and GET /readyz readiness: 503 with the cause
// once the manager lost durability and degraded to memory-only operation,
// so orchestrators can route traffic away from a replica that would forget
// its streams on the next restart. /readyz also breaks readiness down per
// subsystem ("wal", "fleet", "cluster" — ok/degraded/disabled with a
// reason), and down cluster peers degrade the cluster subsystem without
// unreadying the node: its own shard still serves.
//
// Every non-2xx response carries one structured JSON error envelope,
//
//	{"error": {"code": "stream_not_found", "message": "…"}}
//
// with stable machine-readable codes (bad_json, bad_readings, bad_csv,
// bad_config, bad_query, bad_stream_id, bad_sink, batch_too_large,
// body_too_large, stream_not_found, stream_exists, incident_not_found,
// sink_exists, sink_not_found, capacity_exhausted, cluster_unavailable,
// bad_handoff, method_not_allowed, not_found, internal). Listing routes share one ?limit=/?offset= contract (see
// parsePage): limit must be positive when present, offset non-negative,
// and paging past the end yields an empty page.
//
// Stream lifecycle: a created stream is resident until the registry hits
// its capacity bound or the stream sits idle past the TTL; it is then
// evicted — its full streaming state (detector, in-flight window, tracker,
// alarm history) snapshotted to disk — and transparently restored on the
// next access, resuming mid-window with bit-identical round reports and no
// repeated warm-up. Ingested readings must be finite and present; a column
// containing NaN, ±Inf or a JSON null is rejected with 400 before it can
// poison the Pearson correlations of the following rounds. Ingest, sink
// and handoff bodies are bounded in bytes (413 body_too_large past the
// bound); DecodeColumns reads ingest bodies.
//
// Every handler is wrapped in obs.Middleware, so the /metrics endpoint
// exports per-endpoint request counts (http_requests_total), latencies
// (http_request_duration_seconds), and an in-flight gauge alongside the
// per-stream detector pipeline metrics: cad_tsg_build_seconds (the round's
// one sweep over the correlation sums, its stripe of exact pair sums
// included),
// cad_louvain_seconds{path="warm|cold"},
// cad_advance_seconds, cad_rounds_total, cad_alarms_total,
// cad_round_variations, cad_history_mu, cad_history_sigma (all labeled
// {stream}), the registry metrics
// cad_streams_resident, cad_stream_evictions_total,
// cad_stream_restores_total, cad_stream_snapshot_errors_total,
// cad_ingest_rejected_total{stream,reason}, and the route-level ingest body
// decode time cad_ingest_decode_seconds.
package serve

import (
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"time"

	"cad/internal/alert"
	"cad/internal/cluster"
	"cad/internal/core"
	"cad/internal/fleet"
	"cad/internal/manager"
	"cad/internal/mts"
	"cad/internal/obs"
)

// DefaultStream is the stream id the legacy unversioned routes operate on.
const DefaultStream = "default"

// maxBatchColumns caps one NDJSON ingest request; larger batches are
// rejected with batch_too_large before any column is applied.
const maxBatchColumns = 10000

// Alarm is one abnormal round kept in a stream's ring buffer.
type Alarm = manager.Alarm

// Status is the stream-health payload of GET /status and /v1/…/status.
type Status = manager.StreamStatus

// Service routes HTTP traffic onto a stream manager. Safe for concurrent
// use.
type Service struct {
	mgr    *manager.Manager
	reg    *obs.Registry
	logger *slog.Logger
	alerts *alert.Bus
	fleet  *fleet.Fleet
	// cluster, when non-nil, turns this node into a cluster member: writes
	// route to their ring owner, collection reads scatter-gather, and the
	// /v1/cluster routes come alive.
	cluster *cluster.Cluster
	// decodeSeconds times the ingest body decode of every ingest route.
	decodeSeconds *obs.Histogram
	// booted is when the service was built: the fleet correlator keeps its
	// state only in memory, so its incidents date from here.
	booted time.Time
}

// Options configures optional service dependencies.
type Options struct {
	// Manager, when non-nil, is the stream registry to serve (cadserve
	// builds one with capacity/TTL/snapshot flags). Nil creates a private
	// manager with defaults.
	Manager *manager.Manager
	// MaxAlarms bounds the alarm/anomaly ring buffers of the private
	// manager (≤ 0 means 256); ignored when Manager is given.
	MaxAlarms int
	// Registry receives the service and detector metrics of the private
	// manager; ignored when Manager is given (its registry wins).
	Registry *obs.Registry
	// Logger, when non-nil, gets one structured line per HTTP request.
	Logger *slog.Logger
	// Alerts, when non-nil, enables the push-delivery routes: the SSE
	// event feed and the sink CRUD. Pass the same bus the manager
	// publishes into.
	Alerts *alert.Bus
	// Fleet, when non-nil, enables the /v1/incidents routes. Nil falls
	// back to the fleet the manager was built with (if any).
	Fleet *fleet.Fleet
	// Cluster, when non-nil, makes this node a member of a cadserve
	// cluster: per-stream requests are transparently forwarded to the
	// stream's ring owner, collection reads scatter-gather across live
	// peers, and the /v1/cluster status and handoff routes are enabled.
	Cluster *cluster.Cluster
}

// New wraps det (already warmed up, if desired) as the default stream of a
// fresh manager, keeping up to maxAlarms recent alarms (≤ 0 means 256).
func New(det *core.Detector, maxAlarms int) *Service {
	return NewWithOptions(det, Options{MaxAlarms: maxAlarms})
}

// NewWithOptions is New with explicit dependencies. det is registered as
// the "default" stream the legacy routes serve; the manager must not
// already hold that id. The manager attaches a metrics observer to det, so
// the detector should not be shared with another service.
func NewWithOptions(det *core.Detector, o Options) *Service {
	mgr := o.Manager
	if mgr == nil {
		if o.Registry == nil {
			o.Registry = obs.NewRegistry()
		}
		mgr = manager.New(manager.Options{MaxAlarms: o.MaxAlarms, Registry: o.Registry})
	}
	if err := mgr.Adopt(DefaultStream, det); err != nil && !errors.Is(err, manager.ErrExists) {
		panic("serve: adopting the default stream: " + err.Error())
	}
	// ErrExists means startup recovery already restored a default stream
	// from disk; the recovered state (warm detector, alarm history) wins
	// over the caller's fresh detector.
	fl := o.Fleet
	if fl == nil {
		fl = mgr.Fleet()
	}
	reg := mgr.Registry()
	return &Service{mgr: mgr, reg: reg, logger: o.Logger, alerts: o.Alerts, fleet: fl, cluster: o.Cluster,
		decodeSeconds: reg.Histogram("cad_ingest_decode_seconds",
			"Time to read and decode one ingest request body, over every stream.", decodeBuckets),
		booted: time.Now()}
}

// Registry returns the metrics registry the service reports into.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Manager returns the underlying stream manager.
func (s *Service) Manager() *manager.Manager { return s.mgr }

// routeLabel maps a request to a bounded path label for metrics: stream ids
// collapse into {id}, unknown paths into "other", so label cardinality
// stays fixed no matter what clients request.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/ingest", "/status", "/alarms", "/anomalies", "/detect", "/metrics",
		"/healthz", "/readyz", "/version", "/v1/streams", "/v1/sinks",
		"/v1/detect", "/v1/incidents", "/v1/incidents/events", "/v1/events",
		"/v1/cluster", "/v1/cluster/handoff":
		return p
	}
	if rest, ok := strings.CutPrefix(p, "/v1/sinks/"); ok {
		if rest != "" && !strings.Contains(rest, "/") {
			return "/v1/sinks/{name}"
		}
		return "other"
	}
	if rest, ok := strings.CutPrefix(p, "/v1/incidents/"); ok {
		if rest != "" && !strings.Contains(rest, "/") {
			return "/v1/incidents/{id}"
		}
		return "other"
	}
	if rest, ok := strings.CutPrefix(p, "/v1/streams/"); ok {
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			if rest != "" {
				return "/v1/streams/{id}"
			}
			return "other"
		}
		switch action := rest[i:]; action {
		case "/ingest", "/status", "/alarms", "/anomalies", "/events":
			return "/v1/streams/{id}" + action
		}
	}
	return "other"
}

// Handler returns the routed HTTP handler, wrapped with request metrics and
// (when a logger was configured) structured request logging.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	// Versioned multi-tenant API. Method dispatch happens inside the
	// handlers so 405s carry the structured envelope instead of the mux's
	// plain-text default.
	mux.HandleFunc("/v1/streams", s.handleStreams)
	mux.HandleFunc("/v1/streams/{id}", s.handleStream)
	mux.HandleFunc("/v1/streams/{id}/ingest", s.byID(s.handleIngest))
	mux.HandleFunc("/v1/streams/{id}/status", s.byID(s.handleStatus))
	mux.HandleFunc("/v1/streams/{id}/alarms", s.byID(s.handleAlarms))
	mux.HandleFunc("/v1/streams/{id}/anomalies", s.byID(s.handleAnomalies))
	mux.HandleFunc("/v1/streams/{id}/events", s.byID(s.handleEvents))
	mux.HandleFunc("/v1/sinks", s.handleSinks)
	mux.HandleFunc("/v1/sinks/{name}", s.handleSink)
	// Fleet-level incident correlation (404 unless a fleet is wired).
	mux.HandleFunc("/v1/incidents", s.handleIncidents)
	mux.HandleFunc("/v1/incidents/events", s.handleIncidentEvents)
	mux.HandleFunc("/v1/incidents/{id}", s.handleIncident)
	// One-shot batch detection under the versioned prefix.
	mux.HandleFunc("/v1/detect", s.handleDetect)
	// Cluster membership view, peer-to-peer stream handoff, and the
	// fleet-wide event feed (fans in peer feeds when clustered).
	mux.HandleFunc("/v1/cluster", s.handleCluster)
	mux.HandleFunc(cluster.HandoffPath, s.handleClusterHandoff)
	mux.HandleFunc("/v1/events", s.handleFleetEvents)
	// Legacy single-stream routes: deprecated thin delegates to the /v1
	// handlers on the default stream. Responses carry Deprecation/Sunset/
	// Link headers and traffic is counted per route so operators can see
	// who still depends on them before the removal horizon (see README).
	mux.HandleFunc("/ingest", s.deprecated("/v1/streams/{id}/ingest", s.onDefault(s.handleIngest)))
	mux.HandleFunc("/status", s.deprecated("/v1/streams/{id}/status", s.onDefault(s.handleStatus)))
	mux.HandleFunc("/alarms", s.deprecated("/v1/streams/{id}/alarms", s.onDefault(s.handleAlarms)))
	mux.HandleFunc("/anomalies", s.deprecated("/v1/streams/{id}/anomalies", s.onDefault(s.handleAnomalies)))
	mux.HandleFunc("/detect", s.deprecated("/v1/detect", s.handleDetect))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/version", s.handleVersion)
	mux.HandleFunc("/", s.handleNotFound)
	// Ingest routing sits inside the metrics middleware so forwarded
	// requests still count toward this node's per-route series.
	return obs.Middleware(s.routeToOwner(mux), s.reg, s.logger, routeLabel)
}

// byID adapts a stream handler to the /v1/streams/{id}/… routes.
func (s *Service) byID(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h(w, r, r.PathValue("id"))
	}
}

// onDefault adapts a stream handler to the legacy unversioned routes.
func (s *Service) onDefault(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h(w, r, DefaultStream)
	}
}

// legacySunset is the removal horizon for the unversioned routes,
// RFC 8594 HTTP-date form (documented in README).
const legacySunset = "Wed, 30 Jun 2027 00:00:00 GMT"

// deprecated marks a legacy unversioned route: every response carries
// Deprecation + Sunset headers and a Link to the /v1 successor route, and
// the hit is counted in cad_legacy_requests_total{route}. The delegate
// handler is otherwise unchanged, so existing clients keep working until
// the sunset date.
func (s *Service) deprecated(successor string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hd := w.Header()
		hd.Set("Deprecation", "true")
		hd.Set("Sunset", legacySunset)
		hd.Set("Link", `<`+successor+`>; rel="successor-version"`)
		s.legacyRequests(r.URL.Path).Inc()
		h(w, r)
	}
}

func (s *Service) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, CodeNotFound, "no route for %s", r.URL.Path)
}

// handleMetrics guards the exposition handler so its 405 also carries the
// envelope.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	s.reg.Handler().ServeHTTP(w, r)
}

// SubsystemStatus is one subsystem's entry in the /readyz payload:
// "ok", "degraded" (with the reason), or "disabled" (not configured). An
// ok subsystem may carry a reason too: the fleet's says that its state
// does not survive a restart.
type SubsystemStatus struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// HealthResponse is the /healthz and /readyz payload. /readyz adds the
// per-subsystem breakdown so operators (and the cluster health checker)
// can tell WHY a node is degraded, not just that it is; the top-level
// Status/Reason pair keeps its original meaning for probes that only
// look there.
type HealthResponse struct {
	Status string `json:"status"`
	// Reason explains a not-ready verdict (e.g. why durability degraded).
	Reason string `json:"reason,omitempty"`
	// Subsystems details wal (durability), fleet (incident correlation),
	// and cluster (membership) health on /readyz.
	Subsystems map[string]SubsystemStatus `json:"subsystems,omitempty"`
}

// handleHealthz reports liveness: the process is up and serving requests.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// handleReadyz reports readiness with per-subsystem detail. Only lost
// durability makes the node unready (503): a manager that lost its WAL
// keeps ingesting from memory but would forget its streams on the next
// restart, so orchestrators should shift traffic away. Down cluster peers
// are reported under subsystems but do NOT unready this node — its own
// shard is fine, and marking the whole cluster unready because one member
// died would amplify the outage.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	resp := HealthResponse{Status: "ok", Subsystems: map[string]SubsystemStatus{}}
	status := http.StatusOK

	wal := SubsystemStatus{Status: "ok"}
	if !s.mgr.Durable() {
		wal.Status = "disabled"
	}
	if degraded, reason := s.mgr.Degraded(); degraded {
		wal = SubsystemStatus{Status: "degraded", Reason: reason}
		resp.Status = "degraded"
		resp.Reason = reason
		status = http.StatusServiceUnavailable
	}
	resp.Subsystems["wal"] = wal

	if s.fleet == nil {
		resp.Subsystems["fleet"] = SubsystemStatus{Status: "disabled"}
	} else {
		// The co-occurrence matrix and the open incidents are not
		// persisted: a restart starts the correlator empty.
		resp.Subsystems["fleet"] = SubsystemStatus{Status: "ok",
			Reason: "in-memory; incidents since " + s.booted.UTC().Format(time.RFC3339)}
	}

	if s.cluster == nil {
		resp.Subsystems["cluster"] = SubsystemStatus{Status: "disabled"}
	} else if down := s.cluster.DownPeers(); len(down) > 0 {
		resp.Subsystems["cluster"] = SubsystemStatus{
			Status: "degraded",
			Reason: "peers down: " + strings.Join(down, ", "),
		}
	} else {
		resp.Subsystems["cluster"] = SubsystemStatus{Status: "ok"}
	}
	writeJSON(w, status, resp)
}

// firstNonFinite returns the index of the first NaN/±Inf reading, or -1.
func firstNonFinite(xs []float64) int {
	for i, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// CreateStreamRequest is the POST /v1/streams body. Config is optional;
// without it the paper-recommended defaults for the sensor count are used.
// Unknown fields — including inside config — are rejected.
type CreateStreamRequest struct {
	ID      string       `json:"id"`
	Sensors int          `json:"sensors"`
	Config  *core.Config `json:"config"`
}

// handleStreams serves the collection route: POST creates, GET lists.
func (s *Service) handleStreams(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleCreateStream(w, r)
	case http.MethodGet:
		p, ok := parsePage(w, r, 0) // default: the full list
		if !ok {
			return
		}
		w.Header().Set("X-CAD-Version", versionHeader())
		if s.scatterActive(r) {
			s.scatterStreamList(w, r, p)
			return
		}
		writeJSON(w, http.StatusOK, StreamListResponse{Streams: pageSlice(s.mgr.List(), p)})
	default:
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET or POST required")
	}
}

// StreamListResponse is the GET /v1/streams payload.
type StreamListResponse struct {
	Streams []manager.Info `json:"streams"`
}

// maxCreateBytes bounds a POST /v1/streams body: an id, a sensor count and
// a detector config. A longer body is answered 413 body_too_large, and the
// cluster router buffers no more of it to learn the id.
const maxCreateBytes = 1 << 20

func (s *Service) handleCreateStream(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCreateBytes))
	dec.DisallowUnknownFields()
	var req CreateStreamRequest
	if err := dec.Decode(&req); err != nil {
		if isBodyTooLarge(err) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "stream definition exceeds %d bytes", maxCreateBytes)
			return
		}
		if errors.Is(err, core.ErrBadConfig) || strings.Contains(err.Error(), "invalid config") {
			writeError(w, http.StatusBadRequest, CodeBadConfig, "config: %v", err)
			return
		}
		writeError(w, http.StatusBadRequest, CodeBadJSON, "bad JSON: %v", err)
		return
	}
	cfg := core.DefaultConfig(req.Sensors, 10000)
	if req.Config != nil {
		cfg = *req.Config
	}
	restored, err := s.mgr.Create(req.ID, req.Sensors, cfg)
	if err != nil {
		writeStreamError(w, err)
		return
	}
	st, err := s.mgr.Status(req.ID)
	if err != nil {
		writeStreamError(w, err)
		return
	}
	code := http.StatusCreated
	if restored {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// handleStream serves the item route: GET is an alias of …/status, DELETE
// removes the stream and any snapshot of it.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		s.handleStatus(w, r, id)
	case http.MethodDelete:
		if err := s.mgr.Delete(id); err != nil {
			writeStreamError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
	default:
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET or DELETE required")
	}
}

// IngestRequest is one column of the POST …/ingest body; an NDJSON body
// carries one object per column.
type IngestRequest struct {
	Readings []float64 `json:"readings"`
}

// IngestResponse reports what one column did.
type IngestResponse struct {
	Tick           int   `json:"tick"`
	RoundCompleted bool  `json:"roundCompleted"`
	Abnormal       bool  `json:"abnormal"`
	Variations     int   `json:"variations,omitempty"`
	Sensors        []int `json:"sensors,omitempty"`
}

// BatchIngestResponse reports an NDJSON batch: per-column results plus the
// round tally.
type BatchIngestResponse struct {
	Accepted        int              `json:"accepted"`
	RoundsCompleted int              `json:"roundsCompleted"`
	Results         []IngestResponse `json:"results"`
}

func ingestResponse(res manager.IngestResult) IngestResponse {
	out := IngestResponse{Tick: res.Tick, RoundCompleted: res.RoundCompleted}
	if res.RoundCompleted && res.Report.Abnormal {
		out.Abnormal = true
		out.Variations = res.Report.Variations
		out.Sensors = res.Report.Outliers
	}
	return out
}

// handleIngest accepts a single JSON column or an NDJSON batch of columns
// (whitespace-separated JSON objects). The whole request is validated
// before any column is applied, so a 400 never leaves the stream partially
// advanced.
func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST required")
		return
	}
	start := time.Now()
	cols, err := DecodeColumns(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	s.decodeSeconds.Observe(time.Since(start).Seconds())
	var colErr *ColumnError
	switch {
	case isBodyTooLarge(err):
		writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "body exceeds %d bytes", maxIngestBytes)
		return
	case errors.Is(err, ErrBatchTooLarge):
		writeError(w, http.StatusBadRequest, CodeBatchTooLarge, "%v", err)
		return
	case errors.As(err, &colErr) && colErr.Err == nil:
		s.ingestRejected(id, "null").Inc()
		writeError(w, http.StatusBadRequest, CodeBadReadings, "%v", err)
		return
	case err != nil:
		s.ingestRejected(id, "badjson").Inc()
		writeError(w, http.StatusBadRequest, CodeBadJSON, "%v", err)
		return
	case len(cols) == 0:
		s.ingestRejected(id, "badjson").Inc()
		writeError(w, http.StatusBadRequest, CodeBadJSON, "empty body: want a JSON column or an NDJSON batch")
		return
	}
	// Validate at the boundary: one NaN/Inf reading would silently poison
	// the Pearson correlations of every round whose window covers it. The
	// stdlib JSON decoder already refuses non-finite number literals, so
	// this also guards programmatic callers and future encodings.
	for c, col := range cols {
		if i := firstNonFinite(col); i >= 0 {
			s.ingestRejected(id, "nonfinite").Inc()
			writeError(w, http.StatusBadRequest, CodeBadReadings, "column %d: non-finite reading for sensor %d", c, i)
			return
		}
	}
	results, err := s.mgr.IngestBatch(id, cols)
	if err != nil {
		if errors.Is(err, manager.ErrBadColumn) {
			s.ingestRejected(id, "stream").Inc()
		}
		writeStreamError(w, err)
		return
	}
	if len(cols) == 1 {
		writeJSON(w, http.StatusOK, ingestResponse(results[0]))
		return
	}
	resp := BatchIngestResponse{Accepted: len(results), Results: make([]IngestResponse, 0, len(results))}
	for _, res := range results {
		if res.RoundCompleted {
			resp.RoundsCompleted++
		}
		resp.Results = append(resp.Results, ingestResponse(res))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	st, err := s.mgr.Status(id)
	if err != nil {
		writeStreamError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleAlarms serves the alarm ring buffer. ?limit= bounds the page size
// (default 50, capped at the ring size; 0 is rejected) and ?offset= skips
// the N most recent alarms, paging backwards through the ring.
func (s *Service) handleAlarms(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	p, ok := parsePage(w, r, 50)
	if !ok {
		return
	}
	alarms, err := s.mgr.Alarms(id, p.Limit, p.Offset)
	if err != nil {
		writeStreamError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, alarms)
}

// AnomalyRecord is one completed streaming anomaly of GET …/anomalies.
type AnomalyRecord struct {
	Start      int     `json:"start"`
	End        int     `json:"end"`
	FirstRound int     `json:"firstRound"`
	LastRound  int     `json:"lastRound"`
	Score      float64 `json:"score"`
	// Sensors in root-cause order (earliest decorrelation first).
	Sensors []int `json:"sensors"`
}

// AnomaliesResponse is the GET …/anomalies payload.
type AnomaliesResponse struct {
	// Anomalies completed so far (bounded ring buffer).
	Anomalies []AnomalyRecord `json:"anomalies"`
	// Open reports whether an anomaly is in progress right now.
	Open bool `json:"open"`
}

// handleAnomalies serves the completed streaming anomalies assembled by the
// stream's tracker, newest last. Paging matches /alarms: ?limit= bounds the
// page size (default 50, capped at the ring size; 0 is rejected) and
// ?offset= skips the N most recent anomalies.
func (s *Service) handleAnomalies(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	p, ok := parsePage(w, r, 50)
	if !ok {
		return
	}
	anomalies, open, err := s.mgr.Anomalies(id, p.Limit, p.Offset)
	if err != nil {
		writeStreamError(w, err)
		return
	}
	resp := AnomaliesResponse{Anomalies: []AnomalyRecord{}, Open: open}
	for _, a := range anomalies {
		resp.Anomalies = append(resp.Anomalies, AnomalyRecord{
			Start: a.Start, End: a.End,
			FirstRound: a.FirstRound, LastRound: a.LastRound,
			Score: a.Score, Sensors: a.RootCauses(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// DetectResponse is the POST /detect payload.
type DetectResponse struct {
	Rounds    int           `json:"rounds"`
	Anomalies []BatchResult `json:"anomalies"`
}

// BatchResult is one anomaly of a batch detection.
type BatchResult struct {
	Start   int     `json:"start"`
	End     int     `json:"end"`
	Score   float64 `json:"score"`
	Sensors []int   `json:"sensors"`
}

// handleDetect runs a one-shot batch detection on an uploaded CSV with a
// fresh detector sharing the default stream's configuration. The streaming
// state is not touched.
func (s *Service) handleDetect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST required")
		return
	}
	series, err := mts.ReadCSV(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if isBodyTooLarge(err) {
		writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "CSV exceeds %d bytes", maxIngestBytes)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadCSV, "bad CSV: %v", err)
		return
	}
	// CSV is the one ingestion path whose parser accepts "NaN"/"Inf"
	// tokens, so the finite-readings rule must hold here too.
	if series.HasNaN() {
		s.ingestRejected(DefaultStream, "nonfinite").Inc()
		writeError(w, http.StatusBadRequest, CodeBadReadings, "series contains non-finite readings")
		return
	}
	cfg, err := s.mgr.Config(DefaultStream)
	if err != nil {
		writeStreamError(w, err)
		return
	}
	det, err := core.NewDetector(series.Sensors(), cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadConfig, "detector: %v", err)
		return
	}
	res, err := det.Detect(series)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadConfig, "detect: %v", err)
		return
	}
	resp := DetectResponse{Rounds: len(res.Rounds), Anomalies: []BatchResult{}}
	for _, a := range res.Anomalies {
		resp.Anomalies = append(resp.Anomalies, BatchResult{
			Start: a.Start, End: a.End, Score: a.Score, Sensors: a.Sensors,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
