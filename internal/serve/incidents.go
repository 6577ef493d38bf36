package serve

import (
	"net/http"

	"cad/internal/alert"
)

// IncidentListResponse is the GET /v1/incidents payload: fleet-level
// incident snapshots, newest first.
type IncidentListResponse struct {
	Incidents []alert.Incident `json:"incidents"`
}

// handleIncidents serves GET /v1/incidents: the fleet correlator's
// incident store, newest first. ?state=open|closed filters by lifecycle
// state; ?limit=/?offset= page with the uniform contract (default 50).
// Answers 404 unless the service was built with a fleet pipeline
// (Options.Fleet or a manager that carries one).
func (s *Service) handleIncidents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	if s.fleet == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "fleet correlation is not enabled")
		return
	}
	state := r.URL.Query().Get("state")
	switch state {
	case "", "open", "closed":
	default:
		writeError(w, http.StatusBadRequest, CodeBadQuery, "bad state %q: want open or closed", state)
		return
	}
	p, ok := parsePage(w, r, 50)
	if !ok {
		return
	}
	if s.scatterActive(r) {
		s.scatterIncidents(w, r, state, p)
		return
	}
	incidents := s.fleet.Incidents(state)
	if incidents == nil {
		incidents = []alert.Incident{}
	}
	writeJSON(w, http.StatusOK, IncidentListResponse{Incidents: pageSlice(incidents, p)})
}

// handleIncident serves GET /v1/incidents/{id}: one incident snapshot
// with its full onset-ordered suspect list.
func (s *Service) handleIncident(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	if s.fleet == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "fleet correlation is not enabled")
		return
	}
	id := r.PathValue("id")
	inc, ok := s.fleet.Incident(id)
	if !ok {
		// Incidents are node-scoped; a miss here may be a hit on a peer.
		if s.scatterActive(r) && s.scatterIncident(w, r, id) {
			return
		}
		writeError(w, http.StatusNotFound, CodeIncidentNotFound, "incident %q not found", id)
		return
	}
	writeJSON(w, http.StatusOK, inc)
}

// handleIncidentEvents serves GET /v1/incidents/events: a Server-Sent
// Events feed of incident transitions (incident_opened, incident_updated,
// incident_closed) across every stream, in the same unified v1 envelope
// the per-stream feed uses. It subscribes to the whole bus and filters,
// because incidents are fleet-scoped: their events carry no single
// originating stream.
func (s *Service) handleIncidentEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	if s.fleet == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "fleet correlation is not enabled")
		return
	}
	if s.alerts == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "alerting is not enabled")
		return
	}
	sub := s.alerts.Subscribe("", sseBuffer)
	defer sub.Close()
	serveSSE(w, r, sub, func(ev alert.Event) bool {
		switch ev.Type {
		case alert.TypeIncidentOpened, alert.TypeIncidentUpdated, alert.TypeIncidentClosed:
			return true
		}
		return false
	}, nil)
}
