package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"cad/internal/core"
	"cad/internal/manager"
)

// Stable machine-readable error codes. Clients dispatch on Code; Message is
// human-oriented and may change between releases.
const (
	// CodeBadJSON reports an undecodable request body.
	CodeBadJSON = "bad_json"
	// CodeBadReadings reports a column the detector cannot accept:
	// non-finite readings or wrong arity.
	CodeBadReadings = "bad_readings"
	// CodeBadCSV reports an unparseable CSV upload.
	CodeBadCSV = "bad_csv"
	// CodeBadConfig reports an invalid detector configuration.
	CodeBadConfig = "bad_config"
	// CodeBadQuery reports an invalid query parameter (e.g. ?limit=).
	CodeBadQuery = "bad_query"
	// CodeBadStreamID reports a syntactically invalid stream id.
	CodeBadStreamID = "bad_stream_id"
	// CodeBadSink reports an invalid sink definition (unknown type, bad
	// URL, missing path, bad policy).
	CodeBadSink = "bad_sink"
	// CodeSinkExists reports a sink registration against a taken name.
	CodeSinkExists = "sink_exists"
	// CodeSinkNotFound reports an unknown sink name.
	CodeSinkNotFound = "sink_not_found"
	// CodeBatchTooLarge reports an NDJSON ingest batch over the column cap.
	CodeBatchTooLarge = "batch_too_large"
	// CodeBodyTooLarge reports a request body over its route's byte limit
	// (413).
	CodeBodyTooLarge = "body_too_large"
	// CodeStreamNotFound reports an unknown stream id.
	CodeStreamNotFound = "stream_not_found"
	// CodeIncidentNotFound reports an unknown incident id.
	CodeIncidentNotFound = "incident_not_found"
	// CodeStreamExists reports a create against an existing stream id.
	CodeStreamExists = "stream_exists"
	// CodeCapacityExhausted reports a full stream registry with nothing
	// evictable.
	CodeCapacityExhausted = "capacity_exhausted"
	// CodeClusterUnavailable reports that a stream's owning node cannot be
	// reached (or no live node owns it); retry after the cluster heals.
	CodeClusterUnavailable = "cluster_unavailable"
	// CodeBadHandoff reports an undecodable stream-migration bundle.
	CodeBadHandoff = "bad_handoff"
	// CodeMethodNotAllowed reports an unsupported HTTP method.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound reports an unknown route.
	CodeNotFound = "not_found"
	// CodeInternal reports an unexpected server-side failure.
	CodeInternal = "internal"
)

// ErrorInfo is the error payload inside the envelope.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the structured error envelope every non-2xx response
// carries: {"error": {"code": "...", "message": "..."}}.
type ErrorResponse struct {
	Error ErrorInfo `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the structured error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: ErrorInfo{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// isBodyTooLarge reports whether err comes from reading past an
// http.MaxBytesReader limit.
func isBodyTooLarge(err error) bool {
	var e *http.MaxBytesError
	return errors.As(err, &e)
}

// writeStreamError maps manager- and core-layer errors onto the envelope
// with their stable codes.
func writeStreamError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, manager.ErrNotFound):
		writeError(w, http.StatusNotFound, CodeStreamNotFound, "%v", err)
	case errors.Is(err, manager.ErrExists):
		writeError(w, http.StatusConflict, CodeStreamExists, "%v", err)
	case errors.Is(err, manager.ErrCapacity):
		writeError(w, http.StatusServiceUnavailable, CodeCapacityExhausted, "%v", err)
	case errors.Is(err, manager.ErrBadID):
		writeError(w, http.StatusBadRequest, CodeBadStreamID, "%v", err)
	case errors.Is(err, manager.ErrBadColumn):
		writeError(w, http.StatusBadRequest, CodeBadReadings, "%v", err)
	case errors.Is(err, core.ErrBadConfig):
		writeError(w, http.StatusBadRequest, CodeBadConfig, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
	}
}
