package scenario

import (
	"encoding/json"
	"testing"
)

// fastPair is a cheap two-variant grid for tests: the incremental
// reference plus the fixed-ξ rule.
func fastPair(t *testing.T) []ConfigVariant {
	t.Helper()
	var out []ConfigVariant
	for _, v := range Variants() {
		if v.Name == "incremental" || v.Name == "fixed-xi" {
			out = append(out, v)
		}
	}
	if len(out) != 2 {
		t.Fatalf("grid missing incremental/fixed-xi: %d found", len(out))
	}
	return out
}

func TestEvaluateMetricsInRange(t *testing.T) {
	s, _ := ByName("cpu-throttle")
	inst, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	cell, pred, err := Evaluate(inst, BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != inst.Series.Len() {
		t.Fatalf("pred length %d, want %d", len(pred), inst.Series.Len())
	}
	for name, v := range map[string]float64{
		"dpaF1": cell.DPAF1, "paF1": cell.PAF1, "rawF1": cell.RawF1,
		"sensorF1": cell.SensorF1, "falseAlarmRate": cell.FalseAlarmRate,
	} {
		if v < 0 || v > 1 {
			t.Errorf("%s = %v outside [0,1]", name, v)
		}
	}
	if cell.Rounds <= 0 || cell.RoundsPerSec <= 0 {
		t.Errorf("rounds=%d roundsPerSec=%v", cell.Rounds, cell.RoundsPerSec)
	}
	if cell.Detected > cell.Segments || cell.Segments == 0 {
		t.Errorf("detected/segments = %d/%d", cell.Detected, cell.Segments)
	}
	// cpu-throttle is a strong, well-detected scenario under the base
	// config; a regression to zero here means the pipeline broke.
	if cell.DPAF1 < 0.5 {
		t.Errorf("cpu-throttle base DPA-F1 = %v, want ≥ 0.5", cell.DPAF1)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	s, _ := ByName("network-partition")
	inst, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, predA, err := Evaluate(inst, BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, predB, err := Evaluate(inst, BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Everything except wall-clock throughput must be bit-identical.
	a.RoundsPerSec, b.RoundsPerSec = 0, 0
	if a != b {
		t.Fatalf("cells differ:\n%+v\n%+v", a, b)
	}
	for i := range predA {
		if predA[i] != predB[i] {
			t.Fatalf("pred differs at %d", i)
		}
	}
}

func TestRunAndFloors(t *testing.T) {
	scenarios := []Scenario{}
	for _, name := range []string{"crash-loop", "cpu-throttle"} {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("missing scenario %s", name)
		}
		scenarios = append(scenarios, s)
	}
	variants := fastPair(t)
	m, err := Run(scenarios, variants)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetFloors("incremental", 0.10); err != nil {
		t.Fatal(err)
	}
	m.Generated, m.GoVersion, m.GOARCH = "test", "test", "test"
	if err := m.Validate(2, 2); err != nil {
		t.Fatalf("validate: %v", err)
	}
	for _, sr := range m.Scenarios {
		gate, ok := sr.Cell("incremental")
		if !ok {
			t.Fatalf("%s: no incremental cell", sr.Name)
		}
		if sr.Floor > gate.DPAF1 {
			t.Errorf("%s: floor %v above gate DPA-F1 %v", sr.Name, sr.Floor, gate.DPAF1)
		}
		// The reference variant carries zero relative measures; the others
		// must have them populated in [0,1] (Validate range-checks too).
		ref := sr.Cells[0]
		if ref.AheadVsBatch != 0 || ref.MissVsBatch != 0 {
			t.Errorf("%s: reference cell has nonzero ahead/miss", sr.Name)
		}
	}
	// The JSON round-trip must preserve validity — this is the schema the
	// committed BENCH_scenarios.json artifact is checked against.
	buf, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Matrix
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(2, 2); err != nil {
		t.Fatalf("validate after round-trip: %v", err)
	}
}

func TestSetFloorsUnknownGate(t *testing.T) {
	s, _ := ByName("crash-loop")
	m, err := Run([]Scenario{s}, fastPair(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetFloors("no-such-config", 0.1); err == nil {
		t.Fatal("unknown gate accepted")
	}
}

func TestValidateRejectsBadMatrix(t *testing.T) {
	if err := (&Matrix{}).Validate(1, 1); err == nil {
		t.Fatal("empty matrix validated")
	}
	m := &Matrix{
		GateConfig: "incremental",
		Configs:    []ConfigVariant{{Name: "incremental"}},
		Scenarios: []ScenarioResult{{
			Name: "x", Problem: "p", Mechanism: "m", Keywords: []string{"k"},
			Length: 100, Onset: 50, Affected: []int{1},
			Cells: []Cell{{Config: "incremental", DPAF1: 1.5, Rounds: 1}},
		}},
	}
	if err := m.Validate(1, 1); err == nil {
		t.Fatal("out-of-range DPA-F1 validated")
	}
}

func TestVariantsGrid(t *testing.T) {
	vs := Variants()
	if len(vs) < 4 {
		t.Fatalf("grid has %d variants, want ≥ 4", len(vs))
	}
	if vs[0].Name != "incremental" {
		t.Fatalf("reference variant is %q, want incremental", vs[0].Name)
	}
	seen := make(map[string]bool)
	for _, v := range vs {
		if v.Name == "" || v.Summary == "" {
			t.Fatalf("variant %+v missing name/summary", v)
		}
		if seen[v.Name] {
			t.Fatalf("duplicate variant %q", v.Name)
		}
		seen[v.Name] = true
	}
	if !seen["incremental"] {
		t.Fatal("grid missing the incremental gate variant")
	}
}
