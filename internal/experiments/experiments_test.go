package experiments

import (
	"strings"
	"testing"

	"cad/internal/dataset"
)

// quickOpts keeps harness tests fast: tiny scale, one randomized repeat,
// coarse grid, and a method subset where full coverage is not the point.
func quickOpts() Options {
	return Options{Scale: 0.35, Repeats: 2, GridSteps: 100, VUSBuffer: 8}
}

func TestNewMethodAll(t *testing.T) {
	ds, err := dataset.SMD(0).Scaled(0.3).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range AllMethods {
		det, err := NewMethod(id, ds, 1)
		if err != nil {
			t.Fatalf("NewMethod(%s): %v", id, err)
		}
		if det.Name() != string(id) {
			t.Errorf("method %s reports name %q", id, det.Name())
		}
	}
	if _, err := NewMethod("nope", ds, 1); err == nil {
		t.Error("unknown method should error")
	}
}

func TestCADAdapter(t *testing.T) {
	ds, err := dataset.PSM().Scaled(0.4).Build()
	if err != nil {
		t.Fatal(err)
	}
	adapter, err := NewCADAdapter(ds.Test.Sensors(), CADConfigFor(ds))
	if err != nil {
		t.Fatal(err)
	}
	if !adapter.Deterministic() || adapter.Name() != "CAD" {
		t.Error("adapter metadata")
	}
	if err := adapter.Fit(ds.Train); err != nil {
		t.Fatal(err)
	}
	scores, err := adapter.Score(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != ds.Test.Len() {
		t.Fatalf("scores len %d", len(scores))
	}
	if adapter.RoundsProcessed == 0 || adapter.DetectTime <= 0 {
		t.Error("timing not recorded")
	}
	if adapter.LastResult == nil {
		t.Error("LastResult not stored")
	}
	// SensorPredictions align with detected anomalies.
	preds := adapter.SensorPredictions()
	if len(preds) != len(adapter.LastResult.Anomalies) {
		t.Errorf("%d predictions for %d anomalies", len(preds), len(adapter.LastResult.Anomalies))
	}
}

func TestRunDatasetSubset(t *testing.T) {
	opts := quickOpts()
	opts.Methods = []MethodID{MCAD, MECOD, MIForest}
	run, err := RunDataset(dataset.SMD(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range opts.Methods {
		mr, ok := run.Methods[id]
		if !ok {
			t.Fatalf("missing method %s", id)
		}
		if mr.Deterministic && len(mr.Repeats) != 1 {
			t.Errorf("%s: deterministic method ran %d repeats", id, len(mr.Repeats))
		}
		if !mr.Deterministic && len(mr.Repeats) != opts.Repeats {
			t.Errorf("%s: %d repeats, want %d", id, len(mr.Repeats), opts.Repeats)
		}
		for _, rr := range mr.Repeats {
			if rr.F1PA < 0 || rr.F1PA > 1 || rr.F1DPA > rr.F1PA+1e-9 {
				t.Errorf("%s: F1 invariants violated: PA=%v DPA=%v", id, rr.F1PA, rr.F1DPA)
			}
			if len(rr.Scores) != run.Dataset.Test.Len() {
				t.Errorf("%s: score length", id)
			}
		}
	}
	// CAD detects something on this dataset.
	cad := run.Methods[MCAD].Best()
	if cad.F1DPA == 0 {
		t.Error("CAD found nothing on an injected dataset")
	}
	if cad.TPR <= 0 {
		t.Error("CAD TPR missing")
	}
	// ECOD has localization; IForest does not.
	if run.Methods[MECOD].Best().SensorPreds == nil && run.Methods[MECOD].Best().F1DPA > 0 {
		t.Error("ECOD should produce sensor predictions when it predicts anomalies")
	}
	if run.Methods[MIForest].Best().SensorPreds != nil {
		t.Error("IForest should not localize")
	}
}

func TestSuiteTablesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run is expensive")
	}
	opts := quickOpts()
	opts.Methods = []MethodID{MCAD, MECOD, MIForest}
	s := NewSuite(opts)
	s.SMDCount = 3

	t3, err := s.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Datasets) != 4 {
		t.Errorf("Table III datasets: %v", t3.Datasets)
	}
	if out := t3.Render(); !strings.Contains(out, "CAD") || !strings.Contains(out, "Rank") {
		t.Errorf("Table III render:\n%s", out)
	}

	t4, err := s.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	if t4.Subsets != 3 {
		t.Errorf("Table IV subsets = %d", t4.Subsets)
	}
	if out := t4.Render(); !strings.Contains(out, "OP") {
		t.Errorf("Table IV render:\n%s", out)
	}

	t5, err := s.TableV()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range t5.Order {
		for i := range t5.Datasets {
			if t5.Ahead[id][i] < 0 || t5.Ahead[id][i] > 100 || t5.Miss[id][i] < 0 || t5.Miss[id][i] > 100 {
				t.Errorf("Table V out of range: %s %v/%v", id, t5.Ahead[id][i], t5.Miss[id][i])
			}
		}
	}
	_ = t5.Render()

	t6, err := s.TableVI()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range t6.Order {
		for _, sec := range t6.Seconds[id] {
			if sec < 0 {
				t.Errorf("negative training time for %s", id)
			}
		}
	}
	_ = t6.Render()

	t7, err := s.TableVII()
	if err != nil {
		t.Fatal(err)
	}
	if len(t7.TPRMillis) != 4 {
		t.Errorf("Table VII TPR entries: %v", t7.TPRMillis)
	}
	_ = t7.Render()

	t8, err := s.TableVIII()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range t8.Order {
		mr3 := t3.Cells[id]
		for i := range t8.Datasets {
			if t8.MinPA[id][i] > mr3[0][i]+1e-6 {
				t.Errorf("Table VIII: min PA %v exceeds mean %v for %s", t8.MinPA[id][i], mr3[0][i], id)
			}
		}
	}
	_ = t8.Render()
}

func TestSuiteFiguresSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run is expensive")
	}
	opts := quickOpts()
	opts.Methods = []MethodID{MCAD, MECOD}
	s := NewSuite(opts)
	s.SMDCount = 2

	f4, err := s.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	// Counts must be monotone: Ahead≥x count non-increasing in x, Miss≤x
	// count non-decreasing.
	for _, id := range f4.Order {
		for i := 1; i < len(f4.Xs); i++ {
			if f4.AheadCount[id][i] > f4.AheadCount[id][i-1] {
				t.Errorf("Figure 4 Ahead counts not monotone for %s", id)
			}
			if f4.MissCount[id][i] < f4.MissCount[id][i-1] {
				t.Errorf("Figure 4 Miss counts not monotone for %s", id)
			}
		}
	}
	_ = f4.Render()

	f5, err := s.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range f5.Order {
		for _, v := range f5.Values[id] {
			for _, x := range v {
				if x < -1e-6 || x > 100+1e-6 {
					t.Errorf("Figure 5 value out of range: %v", x)
				}
			}
		}
	}
	_ = f5.Render()

	f6, err := s.Figure6(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Sensors) != 2 || f6.Sensors[0] != 143 || f6.Sensors[1] != 264 {
		t.Errorf("Figure 6 sensors: %v", f6.Sensors)
	}
	for i := range f6.TPRMillis {
		if f6.TPRMillis[i] <= 0 {
			t.Errorf("Figure 6 TPR[%d] = %v", i, f6.TPRMillis[i])
		}
	}
	// TPR grows with sensor count.
	if f6.TPRMillis[1] <= f6.TPRMillis[0] {
		t.Logf("note: TPR did not grow (%.3f → %.3f ms); acceptable at tiny scale", f6.TPRMillis[0], f6.TPRMillis[1])
	}
	_ = f6.Render()

	f7, err := s.Figure7(5)
	if err != nil {
		t.Fatal(err)
	}
	if f7.Anomalies == 0 || len(f7.Delays[MCAD]) != f7.Anomalies {
		t.Errorf("Figure 7: %d anomalies, delays %v", f7.Anomalies, f7.Delays[MCAD])
	}
	_ = f7.Render()
}

func TestAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation run is expensive")
	}
	s := NewSuite(quickOpts())
	ab, err := s.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.Variants) != 7 || len(ab.F1PA) != 7 {
		t.Fatalf("ablation variants: %v", ab.Variants)
	}
	if out := ab.Render(); !strings.Contains(out, "full CAD") {
		t.Errorf("ablation render:\n%s", out)
	}
}

func TestTPRBudget(t *testing.T) {
	maxFreq, rt := TPRBudget(0, 10, 1)
	if !rt {
		t.Error("zero TPR should always be real-time")
	}
	maxFreq, rt = TPRBudget(1e7, 10, 1) // 10ms per round, step 10 → 1000 Hz
	if maxFreq < 999 || maxFreq > 1001 || !rt {
		t.Errorf("TPRBudget = %v, %v", maxFreq, rt)
	}
	_, rt = TPRBudget(1e9, 1, 100) // 1s per round, step 1 → 1 Hz < 100 Hz
	if rt {
		t.Error("should not be real-time")
	}
}

func TestCADConfigFor(t *testing.T) {
	ds, err := dataset.PSM().Scaled(0.3).Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := CADConfigFor(ds)
	if err := cfg.Validate(ds.Test.Sensors()); err != nil {
		t.Errorf("derived config invalid: %v", err)
	}
	if cfg.K != ds.SuggestedK {
		t.Errorf("K = %d, want %d", cfg.K, ds.SuggestedK)
	}
	if cfg.Theta <= 0 || cfg.Theta >= 1 {
		t.Errorf("Theta = %v", cfg.Theta)
	}
}

func TestExtraMethods(t *testing.T) {
	ds, err := dataset.SMD(2).Scaled(0.3).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []MethodID{MPCA, MMP, MOCSVM, MHBOS} {
		det, err := NewMethod(id, ds, 1)
		if err != nil {
			t.Fatalf("NewMethod(%s): %v", id, err)
		}
		if err := det.Fit(ds.Train); err != nil {
			t.Fatalf("%s fit: %v", id, err)
		}
		scores, err := det.Score(ds.Test)
		if err != nil {
			t.Fatalf("%s score: %v", id, err)
		}
		if len(scores) != ds.Test.Len() {
			t.Errorf("%s: %d scores for %d points", id, len(scores), ds.Test.Len())
		}
	}
}
