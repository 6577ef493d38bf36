package serve

import (
	"cad/internal/obs"
)

// ingestRejected counts columns the API boundary refused, by stream and
// reason: "nonfinite" (NaN/Inf readings), "null" (a JSON null reading),
// "badjson" (undecodable body), and "stream" (the streamer itself refused
// the column, e.g. wrong arity).
// Cardinality is bounded by the manager's stream capacity. The per-stream
// detector pipeline metrics live in internal/manager, attached when a
// stream is created or restored.
func (s *Service) ingestRejected(stream, reason string) *obs.Counter {
	return s.reg.Counter("cad_ingest_rejected_total",
		"Ingest columns rejected at the API boundary, by stream and reason.",
		obs.Label{Name: "reason", Value: reason},
		obs.Label{Name: "stream", Value: stream})
}

// legacyRequests counts hits on the deprecated unversioned routes, by
// route. Cardinality is bounded: only the five fixed legacy paths are
// ever passed in (the wrapper is applied per registered route).
func (s *Service) legacyRequests(route string) *obs.Counter {
	return s.reg.Counter("cad_legacy_requests_total",
		"Requests served by deprecated unversioned routes, by route.",
		obs.Label{Name: "route", Value: route})
}

// decodeBuckets spans an ingest body decode, from one narrow column
// (about 10µs) to a full warm-up batch of a wide stream.
var decodeBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1,
}
