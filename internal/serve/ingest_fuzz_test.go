package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"cad/internal/core"
	"cad/internal/mts"
)

// errorCodes is every code the error envelope may carry.
var errorCodes = map[string]bool{
	CodeBadJSON: true, CodeBadReadings: true, CodeBadCSV: true, CodeBadConfig: true,
	CodeBadQuery: true, CodeBadStreamID: true, CodeBadSink: true, CodeSinkExists: true,
	CodeSinkNotFound: true, CodeBatchTooLarge: true, CodeBodyTooLarge: true, CodeStreamNotFound: true,
	CodeIncidentNotFound: true, CodeStreamExists: true, CodeCapacityExhausted: true,
	CodeClusterUnavailable: true, CodeBadHandoff: true, CodeMethodNotAllowed: true,
	CodeNotFound: true, CodeInternal: true,
}

// FuzzIngestBody posts arbitrary bodies to handleIngest on one n=4 stream.
// The handler must never panic; a 200 must advance the stream by exactly
// the columns it reports accepting, and a rejection must be a 4xx with a
// known error code that leaves the stream where it was.
func FuzzIngestBody(f *testing.F) {
	for _, seed := range []string{
		`{"readings":[1,2,3,4]}`,
		"{\"readings\":[1,2,3,4]}\n{\"readings\":[2,3,4,5]}\n{\"readings\":[3,4,5,6]}\n",
		`{"readings":[1,2,3,4]} trailing`,
		`{"readings":[NaN,2,3,4]}`,
		"{\"readings\":[1,2,3,4]}\n{\"readings\":[1,2,3]}",
		``,
	} {
		f.Add([]byte(seed))
	}
	det, err := core.NewDetector(4, core.Config{
		Window: mts.Windowing{W: 10, S: 2}, K: 2, Tau: 0.3, Theta: 0.3,
		Eta: 3, SigmaFloor: 0.5, MinHistory: 4,
	})
	if err != nil {
		f.Fatal(err)
	}
	svc := New(det, 16)
	ticks := func(t *testing.T) int {
		st, err := svc.mgr.Status(DefaultStream)
		if err != nil {
			t.Fatal(err)
		}
		return st.Ticks
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before := ticks(t)
		rec := httptest.NewRecorder()
		svc.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/v1/streams/default/ingest", bytes.NewReader(body)), DefaultStream)
		moved := ticks(t) - before
		if rec.Code == http.StatusOK {
			var resp struct {
				Accepted *int `json:"accepted"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with undecodable body %q: %v", rec.Body, err)
			}
			accepted := 1 // a one-column body gets a single-column response
			if resp.Accepted != nil {
				accepted = *resp.Accepted
			}
			if moved != accepted {
				t.Fatalf("200 accepting %d columns advanced the stream %d ticks (body %q)", accepted, moved, body)
			}
			return
		}
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var env ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || !errorCodes[env.Error.Code] {
			t.Fatalf("%d without a known error code (%v): %s", rec.Code, err, rec.Body)
		}
		if moved != 0 {
			t.Fatalf("%d %s advanced the stream %d ticks (body %q)", rec.Code, env.Error.Code, moved, body)
		}
	})
}
