package fleet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"cad/internal/alert"
	"cad/internal/core"
	"cad/internal/scenario"
)

// ReplayConfig parameterizes the fleet replay evaluation: the
// ground-truthed scenario corpus fanned out across a simulated fleet.
type ReplayConfig struct {
	// Streams is the fleet width per scenario (default 32).
	Streams int
	// Stagger is the per-stream onset offset: stream i runs the scenario
	// shifted i·Stagger later, giving LeadLag an unambiguous ground-truth
	// ordering (default 7s).
	Stagger time.Duration
	// PointPeriod maps scenario time points to wall-clock (default 1s).
	PointPeriod time.Duration
	// ScenarioGap separates scenario episodes on the replay clock so
	// unrelated scenarios can never cluster (default 1h).
	ScenarioGap time.Duration
	// Fleet overrides the pipeline configuration; the zero value uses
	// replay-scaled windows (see ReplayFleetConfig).
	Fleet Config
}

// ReplayFleetConfig is the pipeline tuning the replay uses: the same
// shape as production, with windows scaled to the corpus timing — a
// 600s dedup bucket (one failure episode's alarms collapse to one or
// two signals per stream/sensor), a 120s cluster window (bridges the
// gaps between a scenario's alarm rounds once stream staggering spreads
// them), and a 300s quiet close.
func ReplayFleetConfig() Config {
	cfg := DefaultConfig()
	cfg.BucketSize = 600 * time.Second
	cfg.ClusterWindow = 120 * time.Second
	cfg.QuietClose = 300 * time.Second
	// The acceptance dedup key is exactly `stream + time-bucket`: every
	// alarm a stream raises within a bucket is one signal regardless of
	// which sensors it names. (Production defaults keep per-sensor keys
	// for finer incident attribution; sensor evidence still reaches the
	// suspect list either way.)
	cfg.PerSensor = false
	cfg.Seed = 1
	return cfg
}

func (c ReplayConfig) withDefaults() ReplayConfig {
	if c.Streams <= 0 {
		c.Streams = 32
	}
	if c.Stagger <= 0 {
		c.Stagger = 7 * time.Second
	}
	if c.PointPeriod <= 0 {
		c.PointPeriod = time.Second
	}
	if c.ScenarioGap <= 0 {
		c.ScenarioGap = time.Hour
	}
	if c.Fleet == (Config{}) {
		c.Fleet = ReplayFleetConfig()
	}
	c.Fleet = c.Fleet.withDefaults()
	return c
}

// ScenarioReplay is one scenario's replay outcome.
type ScenarioReplay struct {
	Name        string  `json:"name"`
	AlarmRounds int     `json:"alarmRounds"`
	RawSignals  uint64  `json:"rawSignals"`
	Passed      uint64  `json:"passedSignals"`
	DedupRatio  float64 `json:"dedupRatio"`
	// Incidents counts incidents opened for this scenario's single
	// injected fault episode (the acceptance bound is ≤ 2).
	Incidents int `json:"incidents"`
	// OrderOK reports whether the primary incident — the earliest-opened
	// one, anchored at the fault onset — listed its suspects in the
	// staggered ground-truth order (stream 0 leads, indexes ascend).
	// Secondary spill-over incidents have no index-order ground truth:
	// their membership is set by dedup-bucket boundaries crossing
	// several alarm groups, so only the ≤2-incident bound applies.
	OrderOK bool `json:"suspectOrderOK"`
	// MaxStreams is the widest incident's distinct-stream count.
	MaxStreams int `json:"maxStreams"`
	// Surprise is the first opened incident's surprise score.
	Surprise float64 `json:"surprise"`
}

// ReplayResult aggregates the corpus replay.
type ReplayResult struct {
	Streams    int              `json:"streams"`
	RawSignals uint64           `json:"rawSignals"`
	Passed     uint64           `json:"passedSignals"`
	DedupRatio float64          `json:"dedupRatio"`
	Scenarios  []ScenarioReplay `json:"scenarios"`
}

// OrderOK reports whether LeadLag ordering matched ground truth on
// every scenario.
func (r *ReplayResult) OrderOK() bool {
	for _, s := range r.Scenarios {
		if !s.OrderOK {
			return false
		}
	}
	return true
}

// Replay runs the fleet acceptance evaluation: every corpus scenario is
// detected once under the calibrated base configuration, and the
// resulting alarm trace is fanned across cfg.Streams concurrent streams
// with staggered onsets — stream i is the same workload hit i·Stagger
// later, the classic cascading-fleet shape where LeadLag's answer is
// known by construction. Each abnormal round contributes one alarm
// event per implicated time point (the final step of the round's window,
// as in Detect's point labels — the same per-point granularity
// Observer-style CUSUM detectors alarm at), so the dedup stage faces the
// realistic signal flood rather than pre-collapsed rounds.
func Replay(cfg ReplayConfig) (*ReplayResult, error) {
	cfg = cfg.withDefaults()
	fleetCfg := cfg.Fleet
	detCfg := scenario.BaseConfig()

	f := New(fleetCfg, nil)
	var published []alert.Event
	f.SetPublisher(func(ev alert.Event) { published = append(published, ev) })

	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	result := &ReplayResult{Streams: cfg.Streams}

	for si, sc := range scenario.Corpus() {
		inst, err := sc.Build()
		if err != nil {
			return nil, err
		}
		trace, err := alarmTrace(inst, detCfg)
		if err != nil {
			return nil, err
		}

		base := epoch.Add(time.Duration(si) * cfg.ScenarioGap)
		events := make([]alert.Event, 0, len(trace)*detCfg.Window.S*cfg.Streams)
		var last time.Time
		for _, tr := range trace {
			from := tr.windowEnd - detCfg.Window.S
			if from < 0 {
				from = 0
			}
			for p := from; p < tr.windowEnd; p++ {
				for i := 0; i < cfg.Streams; i++ {
					at := base.Add(time.Duration(p)*cfg.PointPeriod + time.Duration(i)*cfg.Stagger)
					if at.After(last) {
						last = at
					}
					events = append(events, alert.Event{
						Type:    alert.TypeAlarm,
						Stream:  fmt.Sprintf("%s-%d", sc.Name, i),
						Time:    at,
						Score:   tr.score,
						Sensors: tr.sensors,
					})
				}
			}
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })

		before := f.Stats()
		publishedBefore := len(published)
		for _, ev := range events {
			f.Observe(ev)
		}
		// Close out the episode before the next scenario's clock starts.
		f.Advance(last.Add(fleetCfg.QuietClose + fleetCfg.BucketSize))
		after := f.Stats()

		sr := ScenarioReplay{
			Name:        sc.Name,
			AlarmRounds: len(trace),
			RawSignals:  after.RawSignals - before.RawSignals,
			Passed:      after.PassedSignals - before.PassedSignals,
		}
		if sr.RawSignals > 0 {
			sr.DedupRatio = 1 - float64(sr.Passed)/float64(sr.RawSignals)
		}
		var primary *alert.Incident
		for _, ev := range published[publishedBefore:] {
			switch ev.Type {
			case alert.TypeIncidentOpened:
				sr.Incidents++
				if sr.Incidents == 1 {
					sr.Surprise = ev.Incident.Surprise
				}
			case alert.TypeIncidentClosed:
				// The closed snapshot carries the full suspect list.
				if primary == nil || ev.Incident.OpenedAt.Before(primary.OpenedAt) {
					primary = ev.Incident
				}
				if ev.Incident.Streams > sr.MaxStreams {
					sr.MaxStreams = ev.Incident.Streams
				}
			}
		}
		// The primary incident must name every fleet stream and order
		// them by their construction-time onsets.
		sr.OrderOK = primary != nil &&
			primary.Streams == cfg.Streams &&
			suspectOrderOK(primary.Suspects)
		result.Scenarios = append(result.Scenarios, sr)
	}

	st := f.Stats()
	result.RawSignals = st.RawSignals
	result.Passed = st.PassedSignals
	result.DedupRatio = st.DedupRatio()
	return result, nil
}

// traceEntry is one abnormal detection round of the reference run.
type traceEntry struct {
	windowEnd int
	score     float64
	sensors   []int
}

// alarmTrace streams one built scenario through the detector and
// returns its abnormal rounds.
func alarmTrace(inst *scenario.Instance, cfg core.Config) ([]traceEntry, error) {
	det, err := core.NewDetector(inst.Sensors, cfg)
	if err != nil {
		return nil, err
	}
	sr := core.NewStreamer(det)
	defer sr.Release()
	col := make([]float64, inst.Sensors)
	var trace []traceEntry
	for p := 0; p < inst.Series.Len(); p++ {
		inst.Series.Column(p, col)
		rep, ok, err := sr.Push(col)
		if err != nil {
			return nil, err
		}
		if ok && rep.Abnormal {
			trace = append(trace, traceEntry{
				windowEnd: rep.WindowEnd,
				score:     rep.Score,
				sensors:   append([]int(nil), rep.Outliers...),
			})
		}
	}
	return trace, nil
}

// suspectOrderOK checks a replay incident's LeadLag verdict against the
// construction: stream indexes must appear in ascending order and the
// leader must carry lag 0.
func suspectOrderOK(suspects []alert.Suspect) bool {
	if len(suspects) == 0 {
		return false
	}
	if suspects[0].LagSeconds != 0 {
		return false
	}
	prev := -1
	for _, sp := range suspects {
		i := strings.LastIndexByte(sp.Stream, '-')
		if i < 0 {
			return false
		}
		idx, err := strconv.Atoi(sp.Stream[i+1:])
		if err != nil || idx <= prev {
			return false
		}
		prev = idx
	}
	return true
}
