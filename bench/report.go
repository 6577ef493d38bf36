package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef names a metric the benchmark can report, with its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of cadserve sees; layerDefs the
// per-layer ones. BENCHMARK.json lists the subset every workload reports.
var (
	endToEndDefs = []metricDef{
		{"setup_s", "s"}, {"ingest_cols_per_s", "cols/s"},
		{"req_p50_ms", "ms"}, {"req_p95_ms", "ms"}, {"req_p99_ms", "ms"},
		{"alarm_p50_ms", "ms"}, {"alarm_p95_ms", "ms"},
		{"read_p50_ms", "ms"}, {"read_p99_ms", "ms"},
		{"rss_peak_mb", "MB"}, {"error_ratio", "ratio"}, {"decision_mismatches", "count"},
	}
	layerDefs = []metricDef{
		{"serve.decode_us_per_col", "us"}, {"serve.self_us_per_req", "us"}, {"serve.server_us_per_req", "us"},
		{"loadgen.net_us_per_req", "us"}, {"loadgen.late_p99_ms", "ms"}, {"loadgen.backlog_max", "count"},
		{"cluster.forwarded_ratio", "ratio"}, {"cluster.forward_us_per_req", "us"},
		{"manager.self_us_per_col", "us"}, {"manager.read_us_per_call", "us"},
		{"wal.append_us_per_col", "us"}, {"wal.bytes_per_col", "B"}, {"wal.sync_ms_per_call", "ms"},
		{"stats.slide_us_per_col", "us"}, {"stats.corr_ms_per_round", "ms"}, {"stats.refresh_ms_per_refresh", "ms"},
		{"core.process_corr_ms_per_round", "ms"}, {"core.advance_us_per_round", "us"},
		{"core.tracker_us_per_round", "us"}, {"core.allocs_per_round", "count"},
		{"core.outlier_free_round_ratio", "ratio"}, {"tsg.repair_ms_per_round", "ms"},
		{"louvain.ms_per_round_p50", "ms"}, {"louvain.ms_per_round_p99", "ms"},
		{"alert.publish_us_per_event", "us"}, {"alert.deliver_ms_p50", "ms"}, {"alert.deliver_ms_p95", "ms"},
		{"trace.overhead_ratio", "ratio"}, {"trace.coverage_ratio", "ratio"},
	}
)

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), layerDefs...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// printReport writes one run's human-readable report.
func printReport(out io.Writer, r *result) {
	fmt.Fprintf(out, "== %s  seed %d  %s\n", r.workload, r.seed, r.window)
	row := func(d metricDef) {
		if v, ok := r.values[d.name]; ok {
			fmt.Fprintf(out, "  %-32s %14.4f %s\n", d.name, v, d.unit)
		} else if why, ok := r.missing[d.name]; ok {
			fmt.Fprintf(out, "  %-32s %14s (%s)\n", d.name, "n/a", why)
		} else {
			fmt.Fprintf(out, "  %-32s %14s (not measured on this workload)\n", d.name, "n/a")
		}
	}
	fmt.Fprintln(out, "end-to-end")
	for _, d := range endToEndDefs {
		row(d)
	}
	fmt.Fprintln(out, "per-layer")
	for _, d := range layerDefs {
		if _, ok := r.values[d.name]; ok || r.traced != nil {
			row(d)
		}
	}
	if r.traced == nil {
		fmt.Fprintln(out, "  (run with -trace for the traced per-layer metrics)")
	} else {
		t := r.traced
		fmt.Fprintf(out, "layer ledger (traced replay: %d requests, %d columns, %d rounds; share of serve.handler)\n",
			len(t.ingest), t.cols, t.rounds)
		fmt.Fprintf(out, "  %-24s %8s %12s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "mean_us", "share")
		var names []string
		for name := range r.ledger {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			a, b := r.ledger[names[i]], r.ledger[names[j]]
			return a.total > b.total || a.total == b.total && names[i] < names[j]
		})
		base := math.NaN()
		if h := r.ledger["serve.handler"]; h != nil {
			base = float64(h.total)
		}
		for _, name := range names {
			a := r.ledger[name]
			share := float64(a.self) / base
			fmt.Fprintf(out, "  %-24s %8d %12.3f %12.3f %12.2f %7.1f%%\n", name, a.count,
				float64(a.total)/1e6, float64(a.self)/1e6, float64(a.total)/float64(a.count)/1e3, 100*share)
		}
	}
	if r.correct() {
		fmt.Fprintf(out, "correct: yes (%d attempted, %d failed)\n\n", r.attempted, r.failed)
	} else {
		fmt.Fprintf(out, "correct: NO (%d attempted, %d failed)\n", r.attempted, r.failed)
		for _, p := range r.verdict.problems {
			fmt.Fprintf(out, "  %s\n", p)
		}
		fmt.Fprintln(out)
	}
}

// summaryLine is the machine-readable last line of standard output.
type summaryLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
	// complete is false when a metric BENCHMARK.json lists could not be
	// measured.
	complete bool
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// listed returns the metrics BENCHMARK.json asks for in this mode.
func listed(spec *benchSpec, traced bool) []specMetric {
	if traced {
		return spec.PerLayer
	}
	return spec.EndToEnd
}

// summarize builds the last line: the listed metrics of a single run, or
// of every run keyed by workload when several ran.
func summarize(results []*result, spec *benchSpec, traced, prefixed bool) summaryLine {
	line := summaryLine{Correct: true, Metrics: map[string]jsonMetric{}, complete: true}
	for _, r := range results {
		line.Correct = line.Correct && r.correct()
		line.Attempted += r.attempted
		line.Failed += r.failed
		for _, m := range listed(spec, traced) {
			key := m.Name
			if prefixed {
				key = r.workload + "." + m.Name
			}
			v, ok := r.values[m.Name]
			if !ok {
				line.complete = false
				fmt.Fprintf(os.Stderr, "bench: %s: %s not measured: %s\n", r.workload, m.Name, r.missing[m.Name])
				continue
			}
			line.Metrics[key] = jsonMetric{Value: v, Unit: m.Unit}
		}
	}
	return line
}

// printRepeat reports, per workload and metric, the median and quartiles
// over the repeated runs and the spread (q3 − q1) / median, flagging an
// end-to-end metric whose spread exceeds its bound. The last line carries
// the medians.
func printRepeat(out io.Writer, results []*result, spec *benchSpec, traced bool) summaryLine {
	line := summaryLine{Correct: true, Metrics: map[string]jsonMetric{}, complete: true}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	inSpec := map[string]bool{}
	for _, m := range listed(spec, traced) {
		inSpec[m.Name] = true
	}
	var order []string
	byWorkload := map[string][]*result{}
	for _, r := range results {
		if byWorkload[r.workload] == nil {
			order = append(order, r.workload)
		}
		byWorkload[r.workload] = append(byWorkload[r.workload], r)
		line.Correct = line.Correct && r.correct()
		line.Attempted += r.attempted
		line.Failed += r.failed
	}
	defs := append(append([]metricDef(nil), endToEndDefs...), layerDefs...)
	for _, name := range order {
		runs := byWorkload[name]
		seeds := make([]string, len(runs))
		for i, r := range runs {
			seeds[i] = fmt.Sprint(r.seed)
		}
		fmt.Fprintf(out, "== %s  %d runs (seeds %s)\n", name, len(runs), strings.Join(seeds, ","))
		fmt.Fprintf(out, "  %-32s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, d := range defs {
			var xs []float64
			for _, r := range runs {
				if v, ok := r.values[d.name]; ok {
					xs = append(xs, v)
				}
			}
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			med := median(xs)
			spread := (q3 - q1) / med
			bound, flag := "", ""
			if b, ok := bounds[d.name]; ok {
				bound = fmt.Sprintf("%.2f", b)
				if math.Abs(spread) > b {
					flag = "  SPREAD ABOVE BOUND"
				}
			}
			if len(xs) < len(runs) {
				flag += fmt.Sprintf("  (%d of %d runs)", len(xs), len(runs))
			}
			fmt.Fprintf(out, "  %-32s %12.4f %12.4f %12.4f %8.4f %6s %s%s\n", d.name, med, q1, q3, spread, bound, d.unit, flag)
			if inSpec[d.name] {
				line.Metrics[name+"."+d.name] = jsonMetric{Value: med, Unit: d.unit}
			}
		}
		for _, r := range runs {
			if !r.correct() {
				fmt.Fprintf(out, "  seed %d incorrect: %s\n", r.seed, strings.Join(r.verdict.problems, "; "))
			}
		}
		fmt.Fprintln(out)
	}
	return line
}
