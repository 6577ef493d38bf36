package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cad/internal/mts"
)

// synth builds an MTS with `groups` blocks of `per` sensors, each block
// driven by its own latent sine plus per-sensor noise. If breakFrom >= 0,
// sensors breakSensors lose their latent signal (become pure noise) on
// [breakFrom, breakTo).
func synth(seed int64, groups, per, length int, breakSensors []int, breakFrom, breakTo int) *mts.MTS {
	rng := rand.New(rand.NewSource(seed))
	n := groups * per
	m := mts.Zeros(n, length)
	phase := make([]float64, groups)
	period := make([]float64, groups)
	for g := range phase {
		phase[g] = rng.Float64() * 2 * math.Pi
		period[g] = 15 + 10*float64(g)
	}
	broken := make(map[int]bool, len(breakSensors))
	for _, s := range breakSensors {
		broken[s] = true
	}
	for t := 0; t < length; t++ {
		for g := 0; g < groups; g++ {
			latent := math.Sin(2*math.Pi*float64(t)/period[g] + phase[g])
			for j := 0; j < per; j++ {
				i := g*per + j
				v := latent*(1+0.2*float64(j)) + 0.05*rng.NormFloat64()
				if broken[i] && t >= breakFrom && t < breakTo {
					v = 0.8 * rng.NormFloat64() // decoupled from the latent
				}
				m.Set(i, t, v)
			}
		}
	}
	return m
}

func testConfig() Config {
	return Config{
		Window:     mts.Windowing{W: 40, S: 4},
		K:          3,
		Tau:        0.4,
		Theta:      0.2, // groups of 4 in 12 sensors: normal RC ≈ 3/11
		Eta:        3,
		SigmaFloor: 0.5,
		MinHistory: 8,
		RCMode:     RCSliding,
		RCHorizon:  8,
	}
}

func TestConfigValidate(t *testing.T) {
	base := testConfig()
	if err := base.Validate(12); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mut := []func(*Config){
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.K = 12 },
		func(c *Config) { c.Tau = 1.5 },
		func(c *Config) { c.Theta = -0.1 },
		func(c *Config) { c.Theta = 1.1 },
		func(c *Config) { c.Eta = 0 },
		func(c *Config) { c.SigmaFloor = -1 },
		func(c *Config) { c.Window.S = c.Window.W },
		func(c *Config) { c.Window.W = 0 },
		func(c *Config) { c.RCMode = RCExponential; c.RCAlpha = 0 },
		func(c *Config) { c.DisableVariationRule = true; c.FixedXi = 0 },
	}
	for i, f := range mut {
		c := base
		f(&c)
		if err := c.Validate(12); !errors.Is(err, ErrBadConfig) {
			t.Errorf("mutation %d: want ErrBadConfig, got %v", i, err)
		}
	}
	if err := base.Validate(1); !errors.Is(err, ErrBadConfig) {
		t.Error("n=1 should be invalid")
	}
}

func TestDefaultConfig(t *testing.T) {
	for _, n := range []int{2, 5, 26, 143, 1266} {
		for _, length := range []int{200, 5000, 100000} {
			cfg := DefaultConfig(n, length)
			if err := cfg.Validate(n); err != nil {
				t.Errorf("DefaultConfig(%d, %d) invalid: %v", n, length, err)
			}
		}
	}
}

func TestRCModeString(t *testing.T) {
	if RCCumulative.String() != "cumulative" || RCExponential.String() != "exponential" {
		t.Error("RCMode names wrong")
	}
	if RCMode(9).String() != "RCMode(9)" {
		t.Error("unknown RCMode formatting")
	}
}

func TestDetectInjectedAnomaly(t *testing.T) {
	his := synth(1, 3, 4, 800, nil, -1, -1)
	// Anomaly: sensors 0 and 1 decouple during [400, 520).
	test := synth(2, 3, 4, 800, []int{0, 1}, 400, 520)

	det, err := NewDetector(12, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := det.WarmUp(his); err != nil {
		t.Fatal(err)
	}
	res, err := det.Detect(test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anomalies) == 0 {
		t.Fatal("no anomalies detected")
	}
	// At least one anomaly must overlap the injected interval and include
	// an injected sensor.
	found := false
	for _, a := range res.Anomalies {
		overlaps := a.Start < 520 && a.End > 400
		if !overlaps {
			continue
		}
		for _, s := range a.Sensors {
			if s == 0 || s == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no overlapping anomaly naming sensors 0/1; got %+v", res.Anomalies)
	}
	// Detection should be early: the first overlapping anomaly starts within
	// a few windows of the break.
	for _, a := range res.Anomalies {
		if a.Start < 520 && a.End > 400 {
			if a.Start > 400+3*40 {
				t.Errorf("late detection: anomaly starts at %d, break at 400", a.Start)
			}
			break
		}
	}
}

func TestDetectCleanSeries(t *testing.T) {
	his := synth(3, 3, 4, 800, nil, -1, -1)
	test := synth(4, 3, 4, 800, nil, -1, -1)
	det, err := NewDetector(12, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := det.WarmUp(his); err != nil {
		t.Fatal(err)
	}
	res, err := det.Detect(test)
	if err != nil {
		t.Fatal(err)
	}
	// Clean continuation: few or no flagged points.
	flagged := 0
	for _, b := range res.PointLabels {
		if b {
			flagged++
		}
	}
	if flagged > test.Len()/10 {
		t.Errorf("clean series: %d/%d points flagged", flagged, test.Len())
	}
}

func TestResultShapes(t *testing.T) {
	test := synth(5, 2, 3, 400, nil, -1, -1)
	cfg := testConfig()
	cfg.K = 2
	det, err := NewDetector(6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Detect(test)
	if err != nil {
		t.Fatal(err)
	}
	R := cfg.Window.Rounds(test.Len())
	if len(res.Rounds) != R {
		t.Errorf("rounds = %d, want %d", len(res.Rounds), R)
	}
	if len(res.PointScores) != test.Len() || len(res.PointLabels) != test.Len() {
		t.Errorf("point series lengths %d/%d, want %d", len(res.PointScores), len(res.PointLabels), test.Len())
	}
	for r, rep := range res.Rounds {
		if rep.Round != r {
			t.Errorf("round %d numbered %d", r, rep.Round)
		}
		if rep.Variations < 0 || rep.Variations > 6 {
			t.Errorf("round %d: n_r = %d out of [0, n]", r, rep.Variations)
		}
		if rep.Score < 0 {
			t.Errorf("round %d: negative score", r)
		}
	}
}

func TestRCBounds(t *testing.T) {
	test := synth(6, 3, 4, 600, []int{0}, 300, 400)
	det, err := NewDetector(12, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect(test); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 12; v++ {
		rc := det.RC(v)
		if rc < 0 || rc > 1 {
			t.Errorf("RC(%d) = %v out of [0,1]", v, rc)
		}
	}
}

func TestDeterminism(t *testing.T) {
	test := synth(7, 3, 4, 600, []int{2, 3}, 250, 350)
	run := func() *Result {
		det, err := NewDetector(12, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.Detect(test)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Anomalies) != len(b.Anomalies) {
		t.Fatalf("non-deterministic anomaly count %d vs %d", len(a.Anomalies), len(b.Anomalies))
	}
	for i := range a.Rounds {
		if a.Rounds[i].Variations != b.Rounds[i].Variations || a.Rounds[i].Abnormal != b.Rounds[i].Abnormal {
			t.Fatalf("round %d differs across runs", i)
		}
	}
}

// TestStreamerMatchesBatch warms three detectors up on the same history —
// the batch oracle, a Streamer and Detect — and requires the two pipelines
// to reproduce the oracle's decisions on the test series. Detect's reports
// are series-relative; the streamer's window ends count on from the
// warm-up.
func TestStreamerMatchesBatch(t *testing.T) {
	his := synth(8, 3, 4, 600, nil, -1, -1)
	test := synth(9, 3, 4, 600, []int{4, 5}, 300, 420)
	cfg := testConfig()
	fresh := func() *Detector {
		det, err := NewDetector(12, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return det
	}

	oracle := fresh()
	if _, err := BatchRounds(oracle, his); err != nil {
		t.Fatal(err)
	}
	want, err := BatchRounds(oracle, test)
	if err != nil {
		t.Fatal(err)
	}

	stream := fresh()
	if err := stream.WarmUp(his); err != nil {
		t.Fatal(err)
	}
	base := stream.Rounds() * cfg.Window.S
	reps, err := NewStreamer(stream).PushSeries(test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reps {
		reps[i].WindowEnd -= base
	}
	if sameDecisions(t, "streamer", reps, want) == 0 {
		t.Fatal("test has no power: the oracle flagged no abnormal rounds")
	}

	batch := fresh()
	if err := batch.WarmUp(his); err != nil {
		t.Fatal(err)
	}
	res, err := batch.Detect(test)
	if err != nil {
		t.Fatal(err)
	}
	sameDecisions(t, "Detect", res.Rounds, want)
	for i, rep := range res.Rounds {
		if rep.Round != i {
			t.Fatalf("Detect round %d reports Round %d", i, rep.Round)
		}
	}
}

func TestStreamerErrors(t *testing.T) {
	det, err := NewDetector(4, Config{Window: mts.Windowing{W: 10, S: 2}, K: 2, Tau: 0.3, Theta: 0.3, Eta: 3, MinHistory: 4})
	if err != nil {
		t.Fatal(err)
	}
	sr := NewStreamer(det)
	if _, _, err := sr.Push([]float64{1, 2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short column: want ErrBadConfig, got %v", err)
	}
	if sr.Detector() != det {
		t.Error("Detector accessor broken")
	}
}

func TestDetectorErrors(t *testing.T) {
	if _, err := NewDetector(12, Config{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero config: want ErrBadConfig, got %v", err)
	}
	det, err := NewDetector(12, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	wrong := mts.Zeros(5, 100)
	if err := det.WarmUp(wrong); !errors.Is(err, ErrBadConfig) {
		t.Errorf("sensor mismatch warm-up: %v", err)
	}
	if _, err := det.Detect(wrong); !errors.Is(err, ErrBadConfig) {
		t.Errorf("sensor mismatch detect: %v", err)
	}
	short := mts.Zeros(12, 5)
	if err := det.WarmUp(short); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short warm-up: %v", err)
	}
	if _, err := det.Detect(short); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short detect: %v", err)
	}
	// One non-finite reading rejects the whole series before any round
	// runs, the same rule Streamer.Push applies per column.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		series := synth(3, 3, 4, 400, nil, -1, -1)
		series.Set(7, 250, bad)
		if err := det.WarmUp(series); !errors.Is(err, ErrBadReading) {
			t.Errorf("warm-up with %v: want ErrBadReading, got %v", bad, err)
		}
		res, err := det.Detect(series)
		if !errors.Is(err, ErrBadReading) || res != nil {
			t.Errorf("detect with %v: want ErrBadReading and no result, got %v", bad, err)
		}
		if err == nil || !strings.Contains(err.Error(), "sensor 7 at time point 250") {
			t.Errorf("detect with %v: error %v does not locate the reading", bad, err)
		}
	}
	if det.Rounds() != 0 {
		t.Errorf("rejected series advanced the detector %d rounds", det.Rounds())
	}
}

func TestFixedXiAblation(t *testing.T) {
	test := synth(10, 3, 4, 600, []int{0, 1, 2}, 300, 400)
	cfg := testConfig()
	cfg.DisableVariationRule = true
	cfg.FixedXi = 2
	det, err := NewDetector(12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Detect(test)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range res.Rounds {
		if rep.Abnormal && len(rep.Outliers) < 2 {
			t.Errorf("round %d flagged with %d outliers under ξ=2", rep.Round, len(rep.Outliers))
		}
	}
}

func TestExponentialRCMode(t *testing.T) {
	test := synth(11, 3, 4, 600, []int{0}, 300, 380)
	cfg := testConfig()
	cfg.RCMode = RCExponential
	cfg.RCAlpha = 0.2
	det, err := NewDetector(12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect(test); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 12; v++ {
		rc := det.RC(v)
		if rc < 0 || rc > 1 {
			t.Errorf("EWMA RC(%d) = %v out of [0,1]", v, rc)
		}
	}
}

func TestHistoryAccessors(t *testing.T) {
	his := synth(12, 2, 3, 400, nil, -1, -1)
	cfg := testConfig()
	cfg.K = 2
	det, err := NewDetector(6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.WarmUp(his); err != nil {
		t.Fatal(err)
	}
	if det.Rounds() != cfg.Window.Rounds(his.Len()) {
		t.Errorf("Rounds = %d, want %d", det.Rounds(), cfg.Window.Rounds(his.Len()))
	}
	if math.IsNaN(det.HistoryMean()) || math.IsNaN(det.HistoryStdDev()) {
		t.Error("history stats NaN after warm-up")
	}
	if det.Sensors() != 6 {
		t.Errorf("Sensors = %d", det.Sensors())
	}
	if det.Config().K != 2 {
		t.Error("Config accessor broken")
	}
}
