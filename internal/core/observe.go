package core

import "time"

// StageTimings breaks one detection round into its pipeline stages, so an
// operator can see where a round's budget goes: correlation-graph
// construction dominates on wide sensor arrays, Louvain on dense ones, and
// the co-appearance advance is the cheap stateful tail.
type StageTimings struct {
	// TSGBuild is the time of the round's one sweep over the correlation
	// sums: applying the slides of the columns pushed since the previous
	// round and summing the round's stripe of rows exactly (every row on
	// a stream's first round), deriving the correlations and selecting
	// the Time-Series Graph's edges, then linking the graph.
	TSGBuild time.Duration
	// Louvain is the community-detection time.
	Louvain time.Duration
	// Warm reports whether Louvain started from the previous round's
	// partition (the edge set was unchanged and no outlier was in flight)
	// rather than from singletons.
	Warm bool
	// Advance covers co-appearance mining, outlier-set maintenance, and the
	// abnormal-round rule.
	Advance time.Duration
}

// RoundObserver receives telemetry after every processed round, warm-up
// included. ObserveRound is called synchronously on the detection path
// (one call per round, from the goroutine advancing the detector state), so
// implementations must be fast; they should also be safe for concurrent use
// when shared between detectors. rep.Round is the detector's global round
// counter. mu and sigma are the n_r history statistics after the round was
// appended.
type RoundObserver interface {
	ObserveRound(rep RoundReport, t StageTimings, mu, sigma float64)
}

// SetObserver attaches o to the detector (nil detaches). Set it before
// WarmUp, Detect or streaming; changing it concurrently with detection is a
// race.
func (d *Detector) SetObserver(o RoundObserver) { d.obs = o }
