// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI) on the simulated dataset recipes: method registry,
// per-dataset runner, and one entry point per experiment. The cmd/cadbench
// binary and the root bench_test.go drive these functions.
package experiments

import (
	"fmt"
	"math"
	"time"

	"cad/internal/baselines"
	"cad/internal/baselines/ecod"
	"cad/internal/baselines/hbos"
	"cad/internal/baselines/iforest"
	"cad/internal/baselines/lof"
	"cad/internal/baselines/mp"
	"cad/internal/baselines/norma"
	"cad/internal/baselines/ocsvm"
	"cad/internal/baselines/pca"
	"cad/internal/baselines/rcoders"
	"cad/internal/baselines/s2g"
	"cad/internal/baselines/sand"
	"cad/internal/baselines/usad"
	"cad/internal/core"
	"cad/internal/eval"
	"cad/internal/mts"
	"cad/internal/simulator"
)

// CADAdapter exposes the CAD detector through the baselines.Detector
// interface so the harness can time and score all ten methods uniformly,
// while keeping CAD's native outputs (binary rounds, abnormal sensors,
// time-per-round) available.
type CADAdapter struct {
	cfg core.Config
	n   int

	det *core.Detector
	// LastResult is the detection result of the most recent Score call.
	LastResult *core.Result
	// RoundsProcessed and DetectTime of the most recent Score call, for
	// the TPR (time-per-round) metric.
	RoundsProcessed int
	DetectTime      time.Duration
}

// NewCADAdapter builds the adapter for n sensors.
func NewCADAdapter(n int, cfg core.Config) (*CADAdapter, error) {
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	return &CADAdapter{cfg: cfg, n: n}, nil
}

// Name implements baselines.Detector.
func (c *CADAdapter) Name() string { return "CAD" }

// Deterministic implements baselines.Detector.
func (c *CADAdapter) Deterministic() bool { return true }

// Fit runs the warm-up process on the historical series.
func (c *CADAdapter) Fit(train *mts.MTS) error {
	det, err := core.NewDetector(c.n, c.cfg)
	if err != nil {
		return err
	}
	if err := det.WarmUp(train); err != nil {
		return err
	}
	c.det = det
	return nil
}

// Score runs detection and returns the per-point deviation scores.
func (c *CADAdapter) Score(test *mts.MTS) ([]float64, error) {
	if c.det == nil {
		det, err := core.NewDetector(c.n, c.cfg)
		if err != nil {
			return nil, err
		}
		c.det = det
	}
	start := time.Now()
	res, err := c.det.Detect(test)
	if err != nil {
		return nil, err
	}
	c.DetectTime = time.Since(start)
	c.RoundsProcessed = len(res.Rounds)
	c.LastResult = res
	return res.PointScores, nil
}

// SensorPredictions converts the last result's anomalies to localization
// predictions.
func (c *CADAdapter) SensorPredictions() []eval.SensorPrediction {
	if c.LastResult == nil {
		return nil
	}
	out := make([]eval.SensorPrediction, 0, len(c.LastResult.Anomalies))
	for _, a := range c.LastResult.Anomalies {
		out = append(out, eval.SensorPrediction{
			Segment: eval.Segment{Start: a.Start, End: a.End},
			Sensors: a.Sensors,
		})
	}
	return out
}

// CADConfigFor derives the harness's CAD configuration for a dataset: the
// paper's recommended windowing on the test length, the recipe's k, and the
// default τ/θ/η.
func CADConfigFor(ds *simulator.Dataset) core.Config {
	cfg := core.DefaultConfig(ds.Test.Sensors(), ds.Test.Len())
	if ds.SuggestedK > 0 && ds.SuggestedK < ds.Test.Sensors() {
		cfg.K = ds.SuggestedK
	}
	// Communities in the recipes are n/Communities wide; θ must sit just
	// below the typical RC plateau ≈ (communitySize−1)/(n−1) so that a
	// decorrelated sensor crosses it within a couple of rounds.
	n := float64(ds.Test.Sensors())
	c := float64(maxInt(2, countCommunities(ds)))
	plateau := (n/c - 1) / (n - 1)
	cfg.Theta = 0.75 * plateau
	if cfg.Theta <= 0 {
		cfg.Theta = 0.1
	}
	// A short RC horizon keeps the outlier transitions of co-affected
	// sensors synchronized, which is what makes the 3σ rule fire early.
	cfg.RCHorizon = 5
	// Favor a tighter window than the generic default (anomalies dominate
	// a window sooner, improving DPA delay) but never drop below 32
	// samples: Pearson estimates over fewer points are so noisy that the
	// Louvain partitions churn, inflating σ and drowning the 3σ rule.
	w := ds.Test.Len() * 12 / 1000
	if w < 32 {
		w = 32
	}
	if w > ds.Test.Len()/4 {
		w = ds.Test.Len() / 4
	}
	if w != cfg.Window.W && w >= 8 {
		cfg.Window.W = w
		if cfg.Window.S >= w {
			cfg.Window.S = maxInt(1, w/50)
		}
	}
	// Spurious cross-community correlations scale as ~1/√w, so raise τ
	// above that noise floor for short windows (the paper's τ ∈ [0.4,0.6]
	// assumes windows of hundreds of samples).
	tau := 3.5 / math.Sqrt(float64(cfg.Window.W))
	if tau > cfg.Tau {
		cfg.Tau = math.Min(tau, 0.75)
	}
	return cfg
}

func countCommunities(ds *simulator.Dataset) int {
	seen := map[int]bool{}
	for _, c := range ds.Community {
		seen[c] = true
	}
	if len(seen) == 0 {
		return 2
	}
	return len(seen)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MethodID identifies one of the paper's ten methods.
type MethodID string

// The ten methods of §VI-A.
const (
	MCAD      MethodID = "CAD"
	MLOF      MethodID = "LOF"
	MECOD     MethodID = "ECOD"
	MIForest  MethodID = "IForest"
	MUSAD     MethodID = "USAD"
	MRCoders  MethodID = "RCoders"
	MS2G      MethodID = "S2G"
	MSAND     MethodID = "SAND"
	MSANDStar MethodID = "SAND*"
	MNormA    MethodID = "NormA"
)

// Extra baselines beyond the paper's nine, all from its related-work
// survey; select explicitly via Options.Methods or `-methods PCA,MP,OC-SVM`.
const (
	// MPCA is the classic linear subspace detector ([4], [76]).
	MPCA MethodID = "PCA"
	// MMP is matrix-profile discord detection ([85]), run per sensor.
	MMP MethodID = "MP"
	// MOCSVM is the one-class SVM ([74]).
	MOCSVM MethodID = "OC-SVM"
	// MHBOS is the histogram-based outlier score ([30]).
	MHBOS MethodID = "HBOS"
)

// AllMethods lists the methods in the paper's table order.
var AllMethods = []MethodID{MCAD, MLOF, MECOD, MIForest, MUSAD, MRCoders, MS2G, MSAND, MSANDStar, MNormA}

// MTSMethods are the methods with a training phase reported in Table VI.
var MTSMethods = []MethodID{MCAD, MLOF, MECOD, MIForest, MUSAD, MRCoders}

// NewMethod instantiates a method for the dataset with the given repeat
// seed. The returned detector is fresh (unfitted).
func NewMethod(id MethodID, ds *simulator.Dataset, seed int64) (baselines.Detector, error) {
	switch id {
	case MCAD:
		return NewCADAdapter(ds.Test.Sensors(), CADConfigFor(ds))
	case MLOF:
		return lof.New(20), nil
	case MECOD:
		return ecod.New(), nil
	case MIForest:
		return iforest.New(seed), nil
	case MUSAD:
		u := usad.New(seed)
		if ds.Test.Sensors() > 100 {
			// Keep the flattened window tractable on wide datasets.
			u.WindowSize = 2
			u.Epochs = 5
		}
		return u, nil
	case MRCoders:
		return rcoders.New(seed), nil
	case MS2G:
		return baselines.NewPerSensor("S2G", true, func(int) baselines.Univariate {
			return s2g.New()
		}), nil
	case MSAND:
		return baselines.NewPerSensor("SAND", false, func(sensor int) baselines.Univariate {
			return sand.New(seed + int64(sensor))
		}), nil
	case MSANDStar:
		return baselines.NewPerSensor("SAND*", false, func(sensor int) baselines.Univariate {
			return sand.NewOnline(seed + int64(sensor))
		}), nil
	case MNormA:
		return baselines.NewPerSensor("NormA", false, func(sensor int) baselines.Univariate {
			return norma.New(seed + int64(sensor))
		}), nil
	case MPCA:
		return pca.New(0), nil
	case MMP:
		return baselines.NewPerSensor("MP", true, func(int) baselines.Univariate {
			return mp.New(0)
		}), nil
	case MOCSVM:
		return ocsvm.New(), nil
	case MHBOS:
		return hbos.New(0), nil
	default:
		return nil, fmt.Errorf("experiments: unknown method %q", id)
	}
}
