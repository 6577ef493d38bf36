package core

import (
	"sort"

	"cad/internal/mts"
)

// Tracker assembles streaming RoundReports into Anomaly records:
// consecutive abnormal rounds form one anomaly, closed by the first normal
// round. It lets Streamer users consume whole anomalies instead of raw
// per-round alarms, and Detect assembles its result with one.
//
// The zero value is not usable; construct with NewTracker using the same
// config as the detector feeding it.
type Tracker struct {
	wd     mts.Windowing
	step   int
	open   *Anomaly
	onsets map[int]int
	// firstEnd/lastEnd record the open anomaly's actual window ends from
	// RoundReport.WindowEnd. After failed-round retries a streamer's
	// windows run ahead of the nominal cadence, so trusting
	// Bounds(round) alone would drift the time attribution. Zero means
	// the feeding reports predate WindowEnd; finish falls back to Bounds.
	firstEnd, lastEnd int
	// Completed anomalies not yet drained.
	done []Anomaly
}

// NewTracker builds a tracker for detectors running with cfg.
func NewTracker(cfg Config) *Tracker {
	return &Tracker{wd: cfg.Window, step: cfg.Window.S}
}

// Push feeds one round report. When the report closes an anomaly (a normal
// round after one or more abnormal ones) the completed anomaly becomes
// available from Drain.
func (tr *Tracker) Push(rep RoundReport) {
	if rep.Abnormal {
		if tr.open == nil {
			tr.open = &Anomaly{FirstRound: rep.Round, LastRound: rep.Round, Score: rep.Score}
			tr.onsets = make(map[int]int)
			tr.firstEnd = rep.WindowEnd
		}
		tr.open.LastRound = rep.Round
		tr.lastEnd = rep.WindowEnd
		if rep.Score > tr.open.Score {
			tr.open.Score = rep.Score
		}
		for _, v := range rep.Outliers {
			if _, seen := tr.onsets[v]; !seen {
				tr.onsets[v] = rep.Round
			}
		}
		return
	}
	if tr.open != nil {
		tr.done = append(tr.done, tr.finish())
		tr.open = nil
	}
}

// Flush closes any still-open anomaly (use at stream end).
func (tr *Tracker) Flush() {
	if tr.open != nil {
		tr.done = append(tr.done, tr.finish())
		tr.open = nil
	}
}

// Open reports whether an anomaly is currently in progress.
func (tr *Tracker) Open() bool { return tr.open != nil }

// Drain returns the completed anomalies accumulated since the last call
// and clears the queue.
func (tr *Tracker) Drain() []Anomaly {
	out := tr.done
	tr.done = nil
	return out
}

func (tr *Tracker) finish() Anomaly {
	a := tr.open
	a.Sensors = make([]int, 0, len(tr.onsets))
	for v := range tr.onsets {
		a.Sensors = append(a.Sensors, v)
	}
	sort.Ints(a.Sensors)
	a.Onsets = make([]int, len(a.Sensors))
	for i, v := range a.Sensors {
		a.Onsets[i] = tr.onsets[v]
	}
	// As in Detect's point labels, each abnormal round implicates the final
	// step of its window, so the anomaly spans from the first round's new
	// points to the last round's window end. Prefer the actual window ends
	// the reports carried; fall back to the nominal cadence for reports
	// (or restored snapshots) that predate WindowEnd.
	firstEnd, lastEnd := tr.firstEnd, tr.lastEnd
	if firstEnd == 0 {
		_, firstEnd = tr.wd.Bounds(a.FirstRound)
	}
	if lastEnd == 0 {
		_, lastEnd = tr.wd.Bounds(a.LastRound)
	}
	a.Start = firstEnd - tr.step
	if a.Start < 0 {
		a.Start = 0
	}
	a.End = lastEnd
	return *a
}
