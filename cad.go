// Package cad is a correlation-analysis-based anomaly detector for
// sensor-based multivariate time series, reproducing "A Stitch in Time
// Saves Nine: Enabling Early Anomaly Detection with Correlation Analysis"
// (ICDE 2023).
//
// CAD converts the series into a sequence of Time-Series Graphs (TSGs):
// per-window correlation k-NN graphs over the sensors. Louvain community
// detection partitions each TSG; co-appearance mining tracks how
// consistently each sensor stays with its community peers; and a 3σ rule on
// the per-round count of outlier transitions flags abnormal rounds together
// with the affected sensors — typically much earlier than magnitude-based
// detectors, because correlations break before readings visibly deviate.
//
// Quick start:
//
//	series, _ := cad.LoadCSV("readings.csv")       // sensors as columns
//	det, _ := cad.NewDetector(series.Sensors(), cad.DefaultConfig(series.Sensors(), series.Len()))
//	_ = det.WarmUp(history)                        // optional but recommended
//	result, _ := det.Detect(series)
//	for _, a := range result.Anomalies {
//	    fmt.Printf("anomaly at [%d,%d): sensors %v\n", a.Start, a.End, a.Sensors)
//	}
//
// For streaming ingestion, wrap the detector in a Streamer and Push one
// column of readings at a time. The package also exports the paper's
// Delay-aware Evaluation scheme (DPA, Ahead/Miss) under the Eval* names.
package cad

import (
	"io"

	"cad/internal/core"
	"cad/internal/eval"
	"cad/internal/mts"
	"cad/internal/viz"
)

// Series is a multivariate time series: one row per sensor, one column per
// time point.
type Series = mts.MTS

// Windowing is the sliding window (w) and step (s) configuration.
type Windowing = mts.Windowing

// NewSeries builds a Series from rows (one slice per sensor). names may be
// nil for default names s1..sn.
func NewSeries(rows [][]float64, names []string) (*Series, error) { return mts.New(rows, names) }

// ZeroSeries allocates an n×length zero-filled series.
func ZeroSeries(n, length int) *Series { return mts.Zeros(n, length) }

// LoadCSV reads a sensors-as-columns CSV file into a Series.
func LoadCSV(path string) (*Series, error) { return mts.LoadCSV(path) }

// SuggestWindowing returns the paper-recommended windowing for a series of
// the given length (w ≈ 0.02·|T|, s ≈ 0.015·w).
func SuggestWindowing(length int) Windowing { return mts.SuggestWindowing(length) }

// Config parameterizes the detector; see DefaultConfig for the recommended
// values.
type Config = core.Config

// RCMode selects how the ratio of co-appearance number accumulates across
// rounds.
type RCMode = core.RCMode

// RC accumulation modes.
const (
	RCSliding     = core.RCSliding
	RCCumulative  = core.RCCumulative
	RCExponential = core.RCExponential
)

// ParseRCMode maps a mode name ("sliding", "cumulative", "exponential") back
// to the RCMode, the inverse of RCMode.String. Config JSON files and API
// bodies spell modes by name.
func ParseRCMode(s string) (RCMode, error) { return core.ParseRCMode(s) }

// ErrBadConfig reports an invalid configuration.
var ErrBadConfig = core.ErrBadConfig

// DefaultConfig returns the paper-recommended configuration for n sensors
// and a series of the given length.
func DefaultConfig(n, length int) Config { return core.DefaultConfig(n, length) }

// Detector runs CAD over whole series (WarmUp, Detect) or, wrapped in a
// Streamer, one column at a time; both run the same round pipeline. It is
// stateful (warm-up and streaming state persist) and not safe for
// concurrent use.
type Detector = core.Detector

// StageTimings breaks one detection round into its pipeline stages.
type StageTimings = core.StageTimings

// RoundObserver receives telemetry after every processed round (warm-up
// included); see WithObserver. Implementations must be fast — they run
// synchronously on the detection path.
type RoundObserver = core.RoundObserver

// Option configures optional detector behavior at construction, so callers
// never need the internal setter API.
type Option func(*Detector)

// WithObserver attaches a per-round telemetry observer to the detector
// (metrics, tracing, progress reporting). The observer is called
// synchronously after every processed round.
func WithObserver(o RoundObserver) Option {
	return func(d *Detector) { d.SetObserver(o) }
}

// NewDetector validates cfg for n sensors and returns a fresh detector.
// Options, when given, configure optional behavior such as WithObserver;
// the two-argument form keeps working unchanged.
func NewDetector(n int, cfg Config, opts ...Option) (*Detector, error) {
	det, err := core.NewDetector(n, cfg)
	if err != nil {
		return nil, err
	}
	for _, opt := range opts {
		opt(det)
	}
	return det, nil
}

// LoadDetector restores a detector from a Detector.SaveState snapshot; it
// resumes exactly where the saved detector stopped (no repeated warm-up).
func LoadDetector(r io.Reader) (*Detector, error) { return core.LoadDetector(r) }

// Anomaly is one detected anomaly: its abnormal sensors, round range, time
// span, and peak deviation score.
type Anomaly = core.Anomaly

// Result is the output of Detector.Detect.
type Result = core.Result

// RoundReport describes one processed round.
type RoundReport = core.RoundReport

// Streamer feeds a Detector one time point at a time.
type Streamer = core.Streamer

// NewStreamer wraps det for streaming ingestion.
func NewStreamer(det *Detector) *Streamer { return core.NewStreamer(det) }

// LoadStreamer restores a streamer from a Streamer.SaveState snapshot,
// including the in-flight window, so ingestion resumes mid-window with
// bit-identical round reports.
func LoadStreamer(r io.Reader) (*Streamer, error) { return core.LoadStreamer(r) }

// Adjuster selects the prediction adjustment of the evaluation scheme.
type Adjuster = eval.Adjuster

// Evaluation adjusters: None (raw), PA (classic point adjustment), and DPA
// (the paper's delay-point adjustment, which penalizes late detection).
const (
	EvalNone = eval.None
	EvalPA   = eval.PA
	EvalDPA  = eval.DPA
)

// EvalF1 scores binary predictions against ground-truth labels under the
// adjuster.
func EvalF1(pred, truth []bool, a Adjuster) (float64, error) { return eval.BinaryF1(pred, truth, a) }

// RelativeResult carries the DaE relative measures of one method against
// another.
type RelativeResult = eval.RelativeResult

// EvalAheadMiss computes the paper's Ahead and Miss measures of method M1's
// predictions against method M2's on the same ground truth.
func EvalAheadMiss(pred1, pred2, truth []bool) (RelativeResult, error) {
	return eval.AheadMiss(pred1, pred2, truth)
}

// EvalDetectionDelay returns, per ground-truth anomaly, the number of time
// points between onset and the first alarm (−1 when missed).
func EvalDetectionDelay(pred, truth []bool) ([]int, error) {
	return eval.DetectionDelay(pred, truth)
}

// WriteHTMLReport renders a self-contained HTML report of a detection run:
// the deviation-score timeline with detected (and optional ground-truth)
// spans, the anomaly table with root-cause-ordered sensors, and sparklines
// of the implicated sensors. truth may be nil.
func WriteHTMLReport(w io.Writer, title string, series *Series, res *Result, truth []bool, cfg Config) error {
	return viz.HTMLReport(w, title, series, res, truth, cfg)
}
