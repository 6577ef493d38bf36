package experiments

import (
	"fmt"
	"strings"

	"cad/internal/core"
	"cad/internal/dataset"
	"cad/internal/eval"
	"cad/internal/simulator"
)

// AblationResult compares CAD design choices DESIGN.md calls out: the 3σ
// variation rule vs a fixed outlier count ξ, τ-pruning vs none, warm-up vs
// cold start, and the sliding RC average vs the paper-literal cumulative
// one.
type AblationResult struct {
	Dataset  string
	Variants []string
	F1PA     []float64
	F1DPA    []float64
}

// Ablation runs the variants on the PSM recipe.
func (s *Suite) Ablation() (*AblationResult, error) {
	rec := dataset.PSM().Scaled(s.Opts.Scale)
	ds, err := rec.Build()
	if err != nil {
		return nil, err
	}
	base := CADConfigFor(ds)
	res := &AblationResult{Dataset: rec.Name}

	type variant struct {
		name   string
		mut    func(*core.Config)
		noWarm bool
	}
	variants := []variant{
		{name: "full CAD", mut: func(*core.Config) {}},
		{name: "fixed-xi rule", mut: func(c *core.Config) {
			c.DisableVariationRule = true
			c.FixedXi = maxInt(1, ds.Test.Sensors()/10)
		}},
		{name: "no tau pruning", mut: func(c *core.Config) { c.Tau = 0 }},
		{name: "no warm-up", mut: func(*core.Config) {}, noWarm: true},
		{name: "cumulative RC", mut: func(c *core.Config) { c.RCMode = core.RCCumulative }},
		{name: "exponential RC", mut: func(c *core.Config) { c.RCMode = core.RCExponential; c.RCAlpha = 0.2 }},
		{name: "bounded history", mut: func(c *core.Config) { c.HistoryHorizon = 64 }},
	}
	for _, v := range variants {
		cfg := base
		v.mut(&cfg)
		det, err := core.NewDetector(ds.Test.Sensors(), cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", v.name, err)
		}
		if !v.noWarm {
			if err := det.WarmUp(ds.Train); err != nil {
				return nil, fmt.Errorf("ablation %q: %w", v.name, err)
			}
		}
		pa, dpa, err := evalCADDetector(det, ds, s.Opts.GridSteps)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", v.name, err)
		}
		res.Variants = append(res.Variants, v.name)
		res.F1PA = append(res.F1PA, 100*pa)
		res.F1DPA = append(res.F1DPA, 100*dpa)
	}
	return res, nil
}

func evalCADDetector(det *core.Detector, ds *simulator.Dataset, gridSteps int) (float64, float64, error) {
	r, err := det.Detect(ds.Test)
	if err != nil {
		return 0, 0, err
	}
	pa, err := eval.GridSearchF1(r.PointScores, ds.Labels, eval.PA, gridSteps)
	if err != nil {
		return 0, 0, err
	}
	dpa, err := eval.GridSearchF1(r.PointScores, ds.Labels, eval.DPA, gridSteps)
	if err != nil {
		return 0, 0, err
	}
	return pa.F1, dpa.F1, nil
}

// Render formats the ablation table.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation on %s (F1, %%)\n", r.Dataset)
	fmt.Fprintf(&b, "%-16s %7s %7s\n", "Variant", "F1_PA", "F1_DPA")
	for i, v := range r.Variants {
		fmt.Fprintf(&b, "%-16s %7.1f %7.1f\n", v, r.F1PA[i], r.F1DPA[i])
	}
	return b.String()
}
