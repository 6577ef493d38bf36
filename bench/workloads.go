package main

import (
	"fmt"
	"sort"
	"time"

	"cad/internal/core"
	"cad/internal/mts"
	"cad/internal/scenario"
	"cad/internal/simulator"
)

// workloadNames lists the workloads in the order a full run takes them.
// The names are stable: result tables and later comparisons cite them.
var workloadNames = []string{"wide-n1000", "fleet-small", "scenario-alarm", "cluster-forward"}

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// stream is one tenant the benchmark drives: its id, detector config, and
// every column it can ever receive, warm-up prefix first.
type stream struct {
	id     string
	cfg    core.Config
	series *mts.MTS
}

// workload is one traffic mix: the streams, how set-up warms them, and how
// the generator offers the remaining columns.
type workload struct {
	name    string
	streams []stream
	// warmup leading columns of every stream are ingested during set-up,
	// before the timed window.
	warmup int
	// colsPerReq columns go into one ingest request: a single JSON object
	// when 1, an NDJSON batch otherwise.
	colsPerReq int
	// conns is the number of client connections. Stream s always travels
	// on connection s % conns, so per-stream column order is preserved.
	conns int
	// streamRate > 0 makes the load an open loop offering that many
	// columns per second to every stream, staggered evenly across streams;
	// 0 is a closed loop. readRate adds open-loop GETs per second,
	// alternating /alarms?limit=50 and /status over the streams.
	streamRate, readRate float64
	// webhook points cadserve's -webhook at a receiver in this process.
	webhook bool
	// nodes cadserve processes form a cluster; all traffic enters node 0.
	nodes int
	// traceCols bounds the traced replay: it takes the workload's requests
	// in canonical order up to the first one reaching this column.
	traceCols int
	// minAlarms fails the run when fewer webhook alarms arrive.
	minAlarms int
	// checkRounds > 0 checks the per-request abnormal flags of the first
	// checkRounds timed rounds against the reference.
	checkRounds int
	// maxOutlierShare > 0 is the calibration guard: the reference's mean
	// outliers per round over the checked prefix, as a share of the sensor
	// count, must not exceed it.
	maxOutlierShare float64
}

// job is one request of a workload.
type job struct {
	// stream indexes workload.streams.
	stream int
	// col is the first column an ingest carries and ncols how many; reads
	// have ncols 0 and name their route suffix in read.
	col, ncols int
	read       string
	// at is the open-loop send time as an offset from the window start.
	at time.Duration
}

// streamConfig is the corpus fleet's reference configuration on the
// incremental path, as scenario.Variants runs it.
func streamConfig() core.Config {
	cfg := scenario.BaseConfig()
	cfg.Incremental, cfg.RefreshEvery = true, 64
	return cfg
}

// buildWorkload generates a workload's inputs from seed. toy shrinks every
// size so all four workloads run in seconds (the smoke test).
func buildWorkload(name string, seed int64, toy bool) (*workload, error) {
	switch name {
	case "wide-n1000":
		return wideWorkload(seed, toy)
	case "fleet-small":
		return fleetWorkload(name, seed, toy, 1)
	case "scenario-alarm":
		return scenarioWorkload(seed, toy)
	case "cluster-forward":
		return fleetWorkload(name, seed, toy, 2)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// wideWorkload is one n=1000 stream whose rounds are dominated by the
// correlation, TSG and Louvain layers. θ sits below the co-appearance
// plateau (communitySize−1)/(n−1) = 24/999 so a healthy sensor is not an
// outlier; the toy variant keeps 25-sensor communities and the same θ to
// plateau ratio.
func wideWorkload(seed int64, toy bool) (*workload, error) {
	n, communities, theta := 1000, 40, 0.018
	if toy {
		n, communities, theta = 200, 8, 0.09
	}
	cfg := streamConfig()
	cfg.Theta = theta
	const rounds = 1024
	warmup := cfg.Window.W + 15*cfg.Window.S // 16 rounds
	gen, err := simulator.New(simulator.Config{
		Seed: seed, Sensors: n, Communities: communities,
		Length: warmup + rounds*cfg.Window.S,
	})
	if err != nil {
		return nil, err
	}
	return &workload{
		name:            "wide-n1000",
		streams:         []stream{{id: "wide", cfg: cfg, series: gen.Clean()}},
		warmup:          warmup,
		colsPerReq:      cfg.Window.S,
		conns:           1,
		nodes:           1,
		traceCols:       warmup + 256*cfg.Window.S,
		checkRounds:     256,
		maxOutlierShare: 0.01,
	}, nil
}

// fleetWorkload is many small clean streams on a closed loop: per-request
// HTTP, decode, manager and WAL costs dominate. nodes = 2 runs the same
// inputs against a two-node cluster entered through one node.
func fleetWorkload(name string, seed int64, toy bool, nodes int) (*workload, error) {
	streams, cols := 64, 2048
	if toy {
		streams, cols = 8, 512
	}
	const warmup = 64
	w := &workload{
		name:       name,
		warmup:     warmup,
		colsPerReq: 1,
		conns:      2,
		nodes:      nodes,
		traceCols:  warmup + 256,
	}
	for j := 0; j < streams; j++ {
		gen, err := simulator.New(simulator.Config{
			Seed: seed*1000 + int64(j), Sensors: 32, Communities: 4,
			Length: warmup + cols, NoiseStd: 0.05, CrossCoupling: 0.1,
		})
		if err != nil {
			return nil, err
		}
		w.streams = append(w.streams, stream{
			id: fmt.Sprintf("fleet-%02d", j), cfg: streamConfig(), series: gen.Clean(),
		})
	}
	return w, nil
}

// scenarioWorkload replays seed-shifted copies of the ten corpus scenarios
// on an open loop, with alarms pushed to a webhook receiver. Set-up ingests
// the clean prefix before the earliest fault onset (point 420), so the
// timed window spends its columns on the faults: at 30 columns/s per
// stream a 15 s window reaches column 850, past most fault ends, and
// holds at least 200 alarms.
func scenarioWorkload(seed int64, toy bool) (*workload, error) {
	w := &workload{
		name:       "scenario-alarm",
		warmup:     400,
		colsPerReq: 1,
		conns:      2,
		nodes:      1,
		streamRate: 30,
		readRate:   50,
		webhook:    true,
		traceCols:  900,
		minAlarms:  200,
	}
	copies := 5
	if toy {
		copies, w.streamRate, w.readRate, w.minAlarms = 1, 300, 100, 10
	}
	for _, sc := range scenario.Corpus() {
		for j := 0; j < copies; j++ {
			s := sc
			s.Seed = sc.Seed + 1000*int64(j) + seed
			inst, err := s.Build()
			if err != nil {
				return nil, err
			}
			w.streams = append(w.streams, stream{
				id: fmt.Sprintf("%s.%d", sc.Name, j), cfg: streamConfig(), series: inst.Series,
			})
		}
	}
	return w, nil
}

// openLoop reports whether the workload sends on a schedule.
func (w *workload) openLoop() bool { return w.streamRate > 0 }

// jobs returns every timed request in canonical order: round-robin over
// the streams for a closed loop, send-time order for an open loop.
func (w *workload) jobs() []job {
	var out []job
	if !w.openLoop() {
		for col := w.warmup; ; col += w.colsPerReq {
			added := false
			for s, st := range w.streams {
				if col+w.colsPerReq <= st.series.Len() {
					out = append(out, job{stream: s, col: col, ncols: w.colsPerReq})
					added = true
				}
			}
			if !added {
				return out
			}
		}
	}
	period := time.Duration(float64(time.Second) / w.streamRate)
	stagger := period / time.Duration(len(w.streams))
	var last time.Duration
	for s, st := range w.streams {
		for col := w.warmup; col+w.colsPerReq <= st.series.Len(); col += w.colsPerReq {
			at := time.Duration(col-w.warmup)/time.Duration(w.colsPerReq)*period + time.Duration(s)*stagger
			out = append(out, job{stream: s, col: col, ncols: w.colsPerReq, at: at})
			last = max(last, at)
		}
	}
	if w.readRate > 0 {
		every := time.Duration(float64(time.Second) / w.readRate)
		for r := 0; time.Duration(r)*every <= last; r++ {
			read := "/alarms?limit=50"
			if r%2 == 1 {
				read = "/status"
			}
			out = append(out, job{stream: r % len(w.streams), col: -1, read: read, at: time.Duration(r) * every})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// traceJobs is the canonical prefix the traced passes replay.
func (w *workload) traceJobs(all []job) []job {
	for i, j := range all {
		if j.ncols > 0 && j.col >= w.traceCols {
			return all[:i]
		}
	}
	return all
}
