package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"cad/internal/alert"
	"cad/internal/cluster"
	"cad/internal/manager"
)

// maxHandoffBytes bounds one migration bundle (snapshot + WAL tail); a
// longer body is answered 413 body_too_large. A variable so tests can
// lower it.
var maxHandoffBytes int64 = 256 << 20

// scatterLimit is the page size used for shard-local fan-out reads: large
// enough to cover any bounded store (incident and alarm rings are far
// smaller), so the coordinator always merges complete shard answers.
const scatterLimit = 1_000_000

// scatterActive reports whether this request should fan out: the node is
// clustered, the request is a fresh client request (not a peer's
// shard-local read), and not already forwarded.
func (s *Service) scatterActive(r *http.Request) bool {
	return s.cluster != nil && !cluster.LocalScope(r) && !cluster.Forwarded(r)
}

// streamIDForRouting extracts the stream id a request operates on, for
// ownership routing: the {id} element of /v1/streams/{id}[/…], or the
// default stream for the legacy single-stream routes. "" means the route
// is not stream-scoped.
func streamIDForRouting(r *http.Request) string {
	if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/streams/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	}
	switch r.URL.Path {
	case "/ingest", "/status", "/alarms", "/anomalies":
		return DefaultStream
	}
	return ""
}

// routeToOwner is the ingest-routing middleware: any node accepts any /v1
// request, and stream-scoped traffic is transparently forwarded to the
// stream's ring owner. Forwarded requests (X-CAD-Forwarded-By) are served
// locally even if this node's ring view disagrees — trusting the
// forwarder caps routing at a single hop, so requests never loop while
// two nodes briefly disagree about liveness. Responses served locally
// carry X-CAD-Node naming this node.
func (s *Service) routeToOwner(next http.Handler) http.Handler {
	if s.cluster == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cluster.Forwarded(r) || cluster.LocalScope(r) {
			w.Header().Set(cluster.HeaderNode, s.cluster.Self().ID)
			next.ServeHTTP(w, r)
			return
		}
		id := streamIDForRouting(r)
		if id == "" && r.Method == http.MethodPost && r.URL.Path == "/v1/streams" {
			id = s.peekCreateID(r)
		}
		// The built-in default stream is node-local by design: every node
		// adopts its own at boot (the legacy single-stream routes depend on
		// it), so it is never forwarded or rebalanced.
		if id != "" && id != DefaultStream && manager.ValidateID(id) == nil {
			owner, ok := s.cluster.Owner(id)
			if !ok {
				writeError(w, http.StatusServiceUnavailable, CodeClusterUnavailable,
					"no live node owns stream %q", id)
				return
			}
			if owner.ID != s.cluster.Self().ID {
				s.cluster.Forward(w, r, owner, s.forwardError(owner))
				return
			}
		}
		w.Header().Set(cluster.HeaderNode, s.cluster.Self().ID)
		next.ServeHTTP(w, r)
	})
}

// peekCreateID buffers up to maxCreateBytes of a POST /v1/streams body to
// learn the id it creates, then hands the handler the whole body again:
// the buffered bytes followed by the unread rest, so the handler's own
// bound still sees an oversized body. An undecodable body returns "" and
// is served locally, where the handler produces the proper 400 or 413.
func (s *Service) peekCreateID(r *http.Request) string {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxCreateBytes))
	r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body), r.Body))
	if err != nil {
		return ""
	}
	var probe struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(body, &probe) != nil {
		return ""
	}
	return probe.ID
}

// forwardError maps a failed forward onto the error envelope. The peer
// has already been marked down, so the next attempt re-routes.
func (s *Service) forwardError(owner cluster.Node) func(http.ResponseWriter, *http.Request, error) {
	return func(w http.ResponseWriter, r *http.Request, err error) {
		writeError(w, http.StatusBadGateway, CodeClusterUnavailable,
			"stream owner %s unreachable: %v", owner.ID, err)
	}
}

// ClusterMover adapts a manager for cluster rebalancing and draining,
// excluding the node-local default stream (see routeToOwner).
type ClusterMover struct{ Mgr *manager.Manager }

// List enumerates the movable streams: everything but the default stream.
func (m ClusterMover) List() []manager.Info {
	infos := m.Mgr.List()
	out := infos[:0]
	for _, info := range infos {
		if info.ID != DefaultStream {
			out = append(out, info)
		}
	}
	return out
}

// Export captures one stream as a migration bundle.
func (m ClusterMover) Export(id string) (manager.StreamExport, error) { return m.Mgr.Export(id) }

// Delete drops the local copy after a peer acknowledged the handoff.
func (m ClusterMover) Delete(id string) error { return m.Mgr.Delete(id) }

// ClusterResponse is the GET /v1/cluster payload: this node's membership
// view plus its local shard size.
type ClusterResponse struct {
	cluster.Status
	// LocalStreams counts the streams resident on or snapshotted by the
	// answering node.
	LocalStreams int `json:"localStreams"`
}

// handleCluster serves GET /v1/cluster. 404 unless clustered.
func (s *Service) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "cluster mode is not enabled")
		return
	}
	writeJSON(w, http.StatusOK, ClusterResponse{
		Status:       s.cluster.Status(),
		LocalStreams: len(s.mgr.List()),
	})
}

// HandoffResponse acknowledges one imported migration bundle.
type HandoffResponse struct {
	Stream string `json:"stream"`
	// Replayed counts the WAL-tail columns applied on top of the snapshot.
	Replayed int `json:"replayed"`
}

// handleClusterHandoff serves POST /v1/cluster/handoff: a peer ships a
// stream's migration bundle (sealed snapshot + WAL tail, gob-encoded) and
// this node imports it and starts owning the stream. 409 if the stream is
// already resident here — the sender then keeps its copy, so a duplicate
// handoff can never silently clobber live state.
func (s *Service) handleClusterHandoff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST required")
		return
	}
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "cluster mode is not enabled")
		return
	}
	exp, err := cluster.DecodeHandoff(http.MaxBytesReader(w, r.Body, maxHandoffBytes))
	if isBodyTooLarge(err) {
		writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "handoff bundle exceeds %d bytes", maxHandoffBytes)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadHandoff, "%v", err)
		return
	}
	replayed, err := s.cluster.ImportHandoff(s.mgr, exp)
	if err != nil {
		writeStreamError(w, err)
		return
	}
	if s.logger != nil {
		s.logger.Info("cluster stream imported",
			"stream", exp.ID, "from", r.Header.Get(cluster.HeaderNode), "replayed", replayed)
	}
	writeJSON(w, http.StatusOK, HandoffResponse{Stream: exp.ID, Replayed: replayed})
}

// scatterStreamList merges the stream listings of every live member:
// local streams plus each peer's shard-local /v1/streams, deduplicated by
// id (an id caught mid-migration may appear on two nodes; the active copy
// wins), sorted by id like the single-node listing, then paged with the
// caller's limit/offset. Peers that fail to answer are named in an
// X-CAD-Partial header so a partial merge is never mistaken for the whole
// fleet.
func (s *Service) scatterStreamList(w http.ResponseWriter, r *http.Request, p page) {
	byID := make(map[string]manager.Info)
	keep := func(infos []manager.Info) {
		for _, info := range infos {
			if cur, ok := byID[info.ID]; ok && cur.State == "active" && info.State != "active" {
				continue
			}
			byID[info.ID] = info
		}
	}
	keep(s.mgr.List())
	var failed []string
	for _, pr := range s.cluster.ScatterGet(r.Context(), "/v1/streams") {
		var list StreamListResponse
		if !pr.OK() || json.Unmarshal(pr.Body, &list) != nil {
			failed = append(failed, pr.Peer.ID)
			continue
		}
		keep(list.Streams)
	}
	merged := make([]manager.Info, 0, len(byID))
	for _, info := range byID {
		merged = append(merged, info)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	if len(failed) > 0 {
		sort.Strings(failed)
		w.Header().Set("X-CAD-Partial", strings.Join(failed, ","))
	}
	writeJSON(w, http.StatusOK, StreamListResponse{Streams: pageSlice(merged, p)})
}

// scatterIncidents merges the incident stores of every live member,
// re-sorted with the fleet's ordering (OpenedAt desc, id desc) and paged
// by the caller. Incident ids are node-scoped ("inc-1" can exist on two
// nodes for different episodes), so entries are NOT deduplicated by id —
// each represents a distinct correlation on its node.
func (s *Service) scatterIncidents(w http.ResponseWriter, r *http.Request, state string, p page) {
	merged := s.fleet.Incidents(state)
	target := fmt.Sprintf("/v1/incidents?limit=%d", scatterLimit)
	if state != "" {
		target += "&state=" + state
	}
	var failed []string
	for _, pr := range s.cluster.ScatterGet(r.Context(), target) {
		var list IncidentListResponse
		if !pr.OK() || json.Unmarshal(pr.Body, &list) != nil {
			failed = append(failed, pr.Peer.ID)
			continue
		}
		merged = append(merged, list.Incidents...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if !merged[i].OpenedAt.Equal(merged[j].OpenedAt) {
			return merged[i].OpenedAt.After(merged[j].OpenedAt)
		}
		return merged[i].ID > merged[j].ID
	})
	if merged == nil {
		merged = []alert.Incident{}
	}
	if len(failed) > 0 {
		sort.Strings(failed)
		w.Header().Set("X-CAD-Partial", strings.Join(failed, ","))
	}
	writeJSON(w, http.StatusOK, IncidentListResponse{Incidents: pageSlice(merged, p)})
}

// scatterIncident looks an incident id up across the peers after a local
// miss, passing the first hit through verbatim.
func (s *Service) scatterIncident(w http.ResponseWriter, r *http.Request, id string) bool {
	for _, pr := range s.cluster.ScatterGet(r.Context(), "/v1/incidents/"+id) {
		if pr.OK() {
			w.Header().Set(cluster.HeaderNode, pr.Peer.ID)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(pr.Body)
			return true
		}
	}
	return false
}

// handleFleetEvents serves GET /v1/events: one SSE feed of every alert
// event in the fleet, in the versioned envelope. On a single node it is
// the whole-bus feed; on a cluster member it additionally fans in each
// live peer's shard-local /v1/events, so one subscription observes every
// node's alarms, anomaly transitions, and incidents. SSE ids are the
// originating node's bus sequence numbers and are therefore only ordered
// per node.
func (s *Service) handleFleetEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	if s.alerts == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "alerting is not enabled")
		return
	}
	sub := s.alerts.Subscribe("", sseBuffer)
	defer sub.Close()
	var peerEvents chan alert.Event // nil (never ready) when not fanning in
	if s.scatterActive(r) {
		peerEvents = make(chan alert.Event, sseBuffer)
		for _, p := range s.cluster.AlivePeers() {
			go func(p cluster.Node) {
				_ = s.cluster.StreamPeerEvents(r.Context(), p, "/v1/events", peerEvents)
			}(p)
		}
	}
	serveSSE(w, r, sub, nil, peerEvents)
}
