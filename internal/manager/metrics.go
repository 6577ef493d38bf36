package manager

import (
	"cad/internal/core"
	"cad/internal/obs"
)

// detectorMetrics bridges core.RoundObserver onto the obs registry with a
// per-stream label, exporting one histogram per pipeline stage plus
// round/alarm counters and the current n_r history statistics. Label
// cardinality is bounded by the manager's stream capacity.
type detectorMetrics struct {
	tsgBuild   *obs.Histogram
	warm, cold *obs.Histogram // Louvain time by path
	advance    *obs.Histogram
	rounds     *obs.Counter
	alarms     *obs.Counter
	variations *obs.Gauge
	mu         *obs.Gauge
	sigma      *obs.Gauge
}

func newDetectorMetrics(reg *obs.Registry, stream string) *detectorMetrics {
	l := obs.Label{Name: "stream", Value: stream}
	return &detectorMetrics{
		tsgBuild: reg.Histogram("cad_tsg_build_seconds",
			"Time of each round's sweep over the correlation sums: the pending slides and the round's stripe of exact pair sums, the derived correlations and the Time-Series Graph selection and link.", obs.DefBuckets, l),
		warm: reg.Histogram("cad_louvain_seconds", louvainHelp, obs.DefBuckets, l,
			obs.Label{Name: "path", Value: "warm"}),
		cold: reg.Histogram("cad_louvain_seconds", louvainHelp, obs.DefBuckets, l,
			obs.Label{Name: "path", Value: "cold"}),
		advance: reg.Histogram("cad_advance_seconds",
			"Co-appearance mining and abnormal-round rule time per round.", obs.DefBuckets, l),
		rounds: reg.Counter("cad_rounds_total",
			"Detection rounds processed.", l),
		alarms: reg.Counter("cad_alarms_total",
			"Rounds flagged abnormal.", l),
		variations: reg.Gauge("cad_round_variations",
			"Outlier transitions n_r of the last processed round.", l),
		mu: reg.Gauge("cad_history_mu",
			"Running mean of n_r.", l),
		sigma: reg.Gauge("cad_history_sigma",
			"Running standard deviation of n_r.", l),
	}
}

// louvainHelp describes cad_louvain_seconds, whose path label tells the
// rounds warm-started from the previous partition from the cold ones.
const louvainHelp = "Louvain community-detection time per round, by path: warm-started from the previous round's partition, or cold."

// ObserveRound implements core.RoundObserver.
func (m *detectorMetrics) ObserveRound(rep core.RoundReport, t core.StageTimings, mu, sigma float64) {
	m.tsgBuild.Observe(t.TSGBuild.Seconds())
	if t.Warm {
		m.warm.Observe(t.Louvain.Seconds())
	} else {
		m.cold.Observe(t.Louvain.Seconds())
	}
	m.advance.Observe(t.Advance.Seconds())
	m.rounds.Inc()
	if rep.Abnormal {
		m.alarms.Inc()
	}
	m.variations.Set(float64(rep.Variations))
	m.mu.Set(finiteOrZero(mu))
	m.sigma.Set(finiteOrZero(sigma))
}
