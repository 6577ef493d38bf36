// Package core implements CAD, the correlation-analysis-based anomaly
// detector of the paper (§IV): the MTS is windowed into rounds, each round
// becomes a Time-Series Graph, Louvain splits the TSG into communities,
// co-appearance mining scores how consistently each sensor stays with its
// community peers, and the per-round count of outlier transitions n_r is
// tested against a 3σ rule to flag abnormal rounds together with the
// affected sensors.
package core

import (
	"errors"
	"fmt"

	"cad/internal/mts"
	"cad/internal/tsg"
)

// ErrBadConfig reports an invalid detector configuration.
var ErrBadConfig = errors.New("cad: invalid config")

// ErrBadReading reports a non-finite (NaN or ±Inf) sensor reading pushed
// into a streamer or passed to WarmUp or Detect.
var ErrBadReading = errors.New("cad: non-finite reading")

// RCMode selects how the ratio of co-appearance number (paper Def. 6) is
// accumulated over rounds.
type RCMode int

const (
	// RCSliding averages S_i(v) over the trailing RCHorizon rounds. This is
	// the default: it keeps Def. 6's "average co-appearance" semantics while
	// staying responsive after arbitrarily long histories (the literal
	// cumulative average moves by at most 1/r per round, which would defeat
	// the paper's early-detection claim once r is large).
	RCSliding RCMode = iota
	// RCCumulative is the paper's literal Def. 6: RC_{v,r} averages S_i(v)
	// over all rounds seen so far.
	RCCumulative
	// RCExponential replaces the average with an exponentially weighted
	// moving average (ablation).
	RCExponential
)

// String returns the mode name.
func (m RCMode) String() string {
	switch m {
	case RCSliding:
		return "sliding"
	case RCCumulative:
		return "cumulative"
	case RCExponential:
		return "exponential"
	default:
		return fmt.Sprintf("RCMode(%d)", int(m))
	}
}

// Config parameterizes a Detector. The fields mirror the paper's symbols.
type Config struct {
	// Window is the sliding window w and step s (§III-B).
	Window mts.Windowing
	// K is the number of nearest (most correlated) neighbors per sensor in
	// the TSG (Table II).
	K int
	// Tau is the correlation threshold τ pruning weak edges (§III-B).
	// Suggested 0.4–0.6.
	Tau float64
	// Theta is the outlier threshold θ on the ratio of co-appearance
	// number (Def. 7). Suggested ≈ 0.3.
	Theta float64
	// Eta is the σ multiplier η in the abnormal-round rule
	// |n_r − μ| ≥ η·σ (§IV-E). The paper fixes η = 3.
	Eta float64
	// SigmaFloor lower-bounds σ in the detection rule to keep it
	// meaningful when the warm-up variance collapses to ~0. Zero
	// reproduces the paper exactly. Deviations of fewer than
	// Eta·SigmaFloor outlier transitions then never alarm.
	SigmaFloor float64
	// MinHistory is the minimum number of n_r samples that must be in the
	// history before rounds may be flagged (warm-up rounds count).
	MinHistory int
	// HistoryHorizon bounds how many trailing n_r samples estimate μ and
	// σ. Zero keeps the paper's unbounded history (§IV-F: more samples →
	// more precise estimates); a bounded horizon instead adapts the
	// threshold when the plant's noise regime drifts over time.
	HistoryHorizon int
	// RCMode selects sliding (default), cumulative (paper-literal), or
	// exponential RC accumulation.
	RCMode RCMode
	// RCHorizon is the trailing number of rounds averaged under RCSliding
	// (ignored otherwise). Zero means the default of 10.
	RCHorizon int
	// RCAlpha is the EWMA factor for RCExponential (ignored otherwise).
	RCAlpha float64
	// Incremental once chose between the Streamer's batch-recompute and
	// incremental round pipelines.
	//
	// Deprecated: ignored; exact configs always stream incrementally.
	Incremental bool
	// RefreshEvery is the exact-refresh cycle of the round pipeline: the
	// longest gap, in rounds, between two exact re-sums of any of the
	// Streamer's sliding correlation sums from the raw window, which
	// discard accumulated floating-point drift. Each round (counting
	// warm-up) re-sums one of RefreshEvery stripes of rows, so Detect and
	// WarmUp do too. Zero means the default of 64.
	RefreshEvery int
	// DisableVariationRule switches the abnormal-round criterion from the
	// 3σ rule on n_r to a fixed count |O_r| ≥ FixedXi (ablation of §IV-E's
	// discussion).
	DisableVariationRule bool
	// FixedXi is the fixed abnormal-time threshold ξ used when
	// DisableVariationRule is set.
	FixedXi int
}

// DefaultConfig returns the paper-recommended configuration for an MTS with
// n sensors and the given series length: w ≈ 0.02|T|, s ≈ 0.015w, τ = 0.5,
// θ = 0.3, η = 3, k ≈ max(10, n/10) capped below n.
func DefaultConfig(n, length int) Config {
	k := n / 10
	if k < 10 {
		k = 10
	}
	if k >= n {
		k = n - 1
	}
	if k < 1 {
		k = 1
	}
	return Config{
		Window:     mts.SuggestWindowing(length),
		K:          k,
		Tau:        0.5,
		Theta:      0.3,
		Eta:        3,
		SigmaFloor: 0.5,
		MinHistory: 8,
		RCMode:     RCSliding,
		RCHorizon:  10,
		RCAlpha:    0.1,
	}
}

// Validate checks cfg for an MTS with n sensors.
func (c Config) Validate(n int) error {
	if n < 2 {
		return fmt.Errorf("%w: need at least 2 sensors, got %d", ErrBadConfig, n)
	}
	if err := (tsg.Builder{K: c.K, Tau: c.Tau}).Validate(n); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.Theta < 0 || c.Theta > 1 {
		return fmt.Errorf("%w: θ=%v must be in [0,1]", ErrBadConfig, c.Theta)
	}
	if c.Eta <= 0 {
		return fmt.Errorf("%w: η=%v must be positive", ErrBadConfig, c.Eta)
	}
	if c.SigmaFloor < 0 {
		return fmt.Errorf("%w: SigmaFloor=%v must be ≥ 0", ErrBadConfig, c.SigmaFloor)
	}
	if c.Window.W <= 0 || c.Window.S <= 0 || c.Window.S >= c.Window.W {
		return fmt.Errorf("%w: windowing w=%d s=%d", ErrBadConfig, c.Window.W, c.Window.S)
	}
	if c.RCMode == RCExponential && (c.RCAlpha <= 0 || c.RCAlpha > 1) {
		return fmt.Errorf("%w: RCAlpha=%v must be in (0,1]", ErrBadConfig, c.RCAlpha)
	}
	if c.RCHorizon < 0 {
		return fmt.Errorf("%w: RCHorizon=%d must be ≥ 0", ErrBadConfig, c.RCHorizon)
	}
	if c.HistoryHorizon < 0 {
		return fmt.Errorf("%w: HistoryHorizon=%d must be ≥ 0", ErrBadConfig, c.HistoryHorizon)
	}
	if c.HistoryHorizon > 0 && c.HistoryHorizon < c.MinHistory {
		return fmt.Errorf("%w: HistoryHorizon=%d below MinHistory=%d", ErrBadConfig, c.HistoryHorizon, c.MinHistory)
	}
	if c.DisableVariationRule && c.FixedXi < 1 {
		return fmt.Errorf("%w: FixedXi=%d must be ≥ 1", ErrBadConfig, c.FixedXi)
	}
	if c.RefreshEvery < 0 {
		return fmt.Errorf("%w: RefreshEvery=%d must be ≥ 0", ErrBadConfig, c.RefreshEvery)
	}
	return nil
}
