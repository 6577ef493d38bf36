// Command cadeval runs the scenario × config evaluation matrix and records
// the result as a JSON baseline checked into the repository
// (BENCH_scenarios.json) — the detection-quality baseline.
//
// Every corpus scenario (internal/scenario) is streamed through every
// detector config variant; each cell reports DaE quality metrics (DPA-F1,
// Ahead/Miss vs the reference variant, detection delay, false-alarm rate,
// sensor-localization F1) plus rounds/sec. All quality metrics are
// deterministic under the scenarios' pinned seeds; only roundsPerSec varies
// between machines. The artifact also records a per-scenario DPA-F1 floor
// (the gate config's score minus slack) that `make scenariotest` asserts
// against, so a detector change that silently degrades a failure mode fails
// CI until the floor is consciously re-recorded.
//
// With -fleet the matrix is skipped and the fleet-level replay runs
// instead: the corpus is fanned across -fleet-streams staggered streams
// through the internal/fleet dedup + correlation pipeline (the same
// evaluation `make fleettest` gates on), a per-scenario table goes to
// stderr, and the JSON ReplayResult goes to stdout.
//
// Usage:
//
//	cadeval -out BENCH_scenarios.json
//	cadeval -scenarios crash-loop,oom-kill -configs incremental,fixed-xi -out /dev/stdout
//	cadeval -fleet [-fleet-streams 32]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"cad/internal/fleet"
	"cad/internal/scenario"
)

func main() {
	var (
		out      = flag.String("out", "BENCH_scenarios.json", "output path")
		only     = flag.String("scenarios", "", "comma-separated scenario filter (default: full corpus)")
		configs  = flag.String("configs", "", "comma-separated config filter (default: full grid)")
		gate     = flag.String("gate", "incremental", "config variant whose DPA-F1 sets each scenario's committed floor")
		slack    = flag.Float64("slack", 0.10, "floor slack subtracted from the gate DPA-F1")
		fleetOn  = flag.Bool("fleet", false, "run the fleet incident-correlation replay instead of the config matrix")
		fleetStr = flag.Int("fleet-streams", 0, "fleet width for -fleet (0 = default 32)")
	)
	flag.Parse()

	if *fleetOn {
		if err := runFleet(*fleetStr); err != nil {
			fatalf("fleet replay: %v", err)
		}
		return
	}

	scenarios, err := pickScenarios(*only)
	if err != nil {
		fatalf("%v", err)
	}
	variants, err := pickVariants(*configs, *gate)
	if err != nil {
		fatalf("%v", err)
	}

	m, err := scenario.Run(scenarios, variants)
	if err != nil {
		fatalf("run: %v", err)
	}
	if err := m.SetFloors(*gate, *slack); err != nil {
		fatalf("floors: %v", err)
	}
	m.Generated = time.Now().UTC().Format(time.RFC3339)
	m.GoVersion = runtime.Version()
	m.GOARCH = runtime.GOARCH
	if err := m.Validate(len(scenarios), len(variants)); err != nil {
		fatalf("self-check: %v", err)
	}

	printSummary(m)

	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
}

// runFleet runs the fleet replay evaluation: stderr gets the per-scenario
// table, stdout the JSON ReplayResult.
func runFleet(streams int) error {
	r, err := fleet.Replay(fleet.ReplayConfig{Streams: streams})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fleet replay: %d streams, %d raw signals, %d passed, dedup %.2f%%\n",
		r.Streams, r.RawSignals, r.Passed, 100*r.DedupRatio)
	fmt.Fprintf(os.Stderr, "%-26s %6s %6s %7s %9s %7s %8s\n",
		"scenario", "rounds", "raw", "dedup", "incidents", "order", "surprise")
	for _, s := range r.Scenarios {
		order := "ok"
		if !s.OrderOK {
			order = "BAD"
		}
		fmt.Fprintf(os.Stderr, "%-26s %6d %6d %6.2f%% %9d %7s %8.2f\n",
			s.Name, s.AlarmRounds, s.RawSignals, 100*s.DedupRatio, s.Incidents, order, s.Surprise)
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = os.Stdout.Write(buf)
	return err
}

// pickScenarios resolves the -scenarios filter against the corpus.
func pickScenarios(filter string) ([]scenario.Scenario, error) {
	if filter == "" {
		return scenario.Corpus(), nil
	}
	var out []scenario.Scenario
	for _, name := range strings.Split(filter, ",") {
		s, ok := scenario.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q", name)
		}
		out = append(out, s)
	}
	return out, nil
}

// pickVariants resolves the -configs filter against the grid, keeping grid
// order (the first kept variant is the Ahead/Miss reference) and requiring
// the gate variant to survive the filter.
func pickVariants(filter, gate string) ([]scenario.ConfigVariant, error) {
	all := scenario.Variants()
	if filter == "" {
		return all, nil
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(filter, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var out []scenario.ConfigVariant
	for _, v := range all {
		if want[v.Name] {
			out = append(out, v)
			delete(want, v.Name)
		}
	}
	for name := range want {
		return nil, fmt.Errorf("unknown config %q", name)
	}
	hasGate := false
	for _, v := range out {
		hasGate = hasGate || v.Name == gate
	}
	if !hasGate {
		return nil, fmt.Errorf("config filter drops the gate variant %q", gate)
	}
	return out, nil
}

// printSummary renders the matrix as a DPA-F1 table on stderr.
func printSummary(m *scenario.Matrix) {
	fmt.Fprintf(os.Stderr, "%-26s", "scenario \\ config")
	for _, v := range m.Configs {
		fmt.Fprintf(os.Stderr, " %13s", v.Name)
	}
	fmt.Fprintf(os.Stderr, " %6s\n", "floor")
	for _, s := range m.Scenarios {
		fmt.Fprintf(os.Stderr, "%-26s", s.Name)
		for _, v := range m.Configs {
			c, _ := s.Cell(v.Name)
			fmt.Fprintf(os.Stderr, " %13.2f", c.DPAF1)
		}
		fmt.Fprintf(os.Stderr, " %6.2f\n", s.Floor)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cadeval: "+format+"\n", args...)
	os.Exit(1)
}
