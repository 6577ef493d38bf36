package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpec checks BENCHMARK.json against the limits a benchmark definition
// must respect and against the workloads and units this program knows.
func TestSpec(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec benchSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2–8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1–16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1–128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1–60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, wl := range spec.Workloads {
		checkName("workload", wl.Name)
		if !knownWorkload(wl.Name) {
			t.Errorf("workload %q is not one of %v", wl.Name, workloadNames)
		}
		if wl.Why == "" || len(wl.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, want 1–200", wl.Name, len(wl.Why))
		}
	}
	// A metric that cannot repeat within 0.10 is left out rather than given a
	// wider bound. Only set-up time, which a benchmark definition must list
	// with the largest bound, may carry more, up to 0.25.
	largest := 0.0
	for _, m := range spec.EndToEnd {
		limit := 0.10
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v, want (0, %v]", m.Name, m.Bound, limit)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		checkName("metric", m.Name)
		if !unitRE.MatchString(m.Unit) || m.Unit != unitOf(m.Name) {
			t.Errorf("%s: unit %q, the program reports %q", m.Name, m.Unit, unitOf(m.Name))
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	var setup *specMetric
	for i := range spec.EndToEnd {
		if spec.EndToEnd[i].Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != largest {
		t.Errorf("setup_s must be listed in s, lower is better, with the largest bound; got %+v", setup)
	}
}

// TestSmoke runs every workload at toy scale against real cadserve
// processes, traced, and checks that each run is correct and reports every
// metric BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts cadserve processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildCadserve(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := buildWorkload(name, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runWorkload(w, 1, runConfig{bin: bin, work: t.TempDir(), seconds: 1, setups: 2, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.failed > 0 {
				t.Errorf("run incorrect (%d of %d requests failed): %v", res.failed, res.attempted, res.verdict.problems)
			}
			for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
				if _, ok := res.values[m.Name]; !ok {
					t.Errorf("%s not reported: %s", m.Name, res.missing[m.Name])
				}
			}
			for _, traced := range []bool{false, true} {
				line := summarize([]*result{res}, spec, traced, false)
				for _, m := range listed(spec, traced) {
					if got := line.Metrics[m.Name]; got.Unit != m.Unit {
						t.Errorf("%s: emitted unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			}
		})
	}
}
