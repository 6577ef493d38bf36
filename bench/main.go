// Command bench is the repository's outside-in benchmark. It builds
// cmd/cadserve, starts fresh server processes, drives them over HTTP from
// one load-generator process with generated sensor columns, checks every
// decision against an in-process reference, and prints the end-to-end
// metrics. With -trace it also replays each workload's first requests
// in-process through the layers' public functions and prints per-layer
// metrics derived from spans recorded around those calls.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-trace 0|1|FILE] [-repeat N]
//
// Without -workload every workload runs in turn. Each timed window lasts
// run_seconds of BENCHMARK.json; -seconds is accepted only with that
// value. The last line of standard output is one JSON object:
// {"correct","attempted","failed","metrics"}. See bench/README.md for the
// workloads, the metric map and the trace format.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// benchSpec is BENCHMARK.json: the workloads, the end-to-end metrics with
// their regression bounds, and the per-layer metrics.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// options are the command-line settings of one invocation.
type options struct {
	workloads []string
	seed      int64
	seconds   int
	trace     string // spans file; "" when off
	repeat    int
}

// spansDefault is where -trace 1 writes, relative to the repository root.
const spansDefault = ".bench_build/spans.jsonl"

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all of "+strings.Join(workloadNames, ", ")+")")
		seed     = flag.Int64("seed", 1, "workload seed: equal seeds give equal inputs")
		seconds  = flag.Int("seconds", 0, "length of each timed window; accepted only equal to run_seconds of BENCHMARK.json, which is also the default")
		trace    = flag.String("trace", "0", `per-layer run: "0" off, "1" on with spans in .bench_build/spans.jsonl, or the spans file to write`)
		repeat   = flag.Int("repeat", 0, "run each workload N times (seeds seed, seed+1, …) and print medians, quartiles and spreads")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, repeat: *repeat, workloads: workloadNames}
	if *workload != "" {
		o.workloads = []string{*workload}
	}
	switch *trace {
	case "0", "":
	case "1":
		o.trace = spansDefault
	default:
		abs, err := filepath.Abs(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		o.trace = abs
	}
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the invocation and prints its report; ok is false when any
// run was incorrect, failed requests, or could not produce a metric.
func run(o options) (ok bool, err error) {
	root, err := findRoot()
	if err != nil {
		return false, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return false, err
	}
	// The window length belongs to the benchmark definition, so that both
	// sides of a comparison measure the same window; the flag exists only
	// because callers pass run_seconds explicitly.
	if o.seconds != 0 && o.seconds != spec.RunSeconds {
		return false, fmt.Errorf("-seconds %d: the timed window is run_seconds of BENCHMARK.json, %d", o.seconds, spec.RunSeconds)
	}
	for _, name := range o.workloads {
		if !knownWorkload(name) {
			return false, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
		}
	}
	if o.trace == spansDefault {
		o.trace = filepath.Join(root, spansDefault)
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return false, err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return false, err
	}
	defer func() {
		if ok {
			os.RemoveAll(work)
		} else {
			fmt.Fprintln(os.Stderr, "bench: server logs kept in", work)
		}
	}()
	bin, err := buildCadserve(root, work)
	if err != nil {
		return false, err
	}
	cfg := runConfig{bin: bin, work: work, seconds: float64(spec.RunSeconds), setups: 5, trace: o.trace != ""}
	var results []*result
	runs := max(o.repeat, 1)
	for _, name := range o.workloads {
		for i := 0; i < runs; i++ {
			seed := o.seed + int64(i)
			fmt.Fprintf(os.Stderr, "bench: %s seed %d\n", name, seed)
			w, err := buildWorkload(name, seed, false)
			if err != nil {
				return false, err
			}
			res, err := runWorkload(w, seed, cfg)
			if err != nil {
				return false, fmt.Errorf("%s: %w", name, err)
			}
			results = append(results, res)
			if o.repeat == 0 {
				printReport(os.Stdout, res)
			}
		}
	}
	if o.trace != "" {
		if err := writeSpans(o.trace, results); err != nil {
			return false, err
		}
		fmt.Fprintln(os.Stderr, "bench: spans written to", o.trace)
	}
	var line summaryLine
	if o.repeat > 0 {
		line = printRepeat(os.Stdout, results, spec, cfg.trace)
	} else {
		line = summarize(results, spec, cfg.trace, len(o.workloads) > 1)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return line.Correct && line.Failed == 0 && line.complete, nil
}

// writeSpans writes every traced span as one JSON object per line, run by
// run. A span's id is its line number within its run's block, counted from
// 0; parent refers to it.
func writeSpans(path string, results []*result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		if r.traced == nil {
			continue
		}
		for _, s := range r.traced.tr.spans {
			if err := enc.Encode(struct {
				span
				Workload string `json:"workload"`
			}{s, r.workload}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
