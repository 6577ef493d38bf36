package core_test

// Scenario-driven decision equivalence: incremental_test.go proves the
// streamer ↔ batch oracle contract on synthetic and random-simulator data;
// this suite re-proves it on every named corpus scenario — real failure
// shapes (restart loops, saturation, staggered cascades, regime tears), not
// just random anomaly mixes. It lives in package core_test because the
// corpus itself imports core.

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"cad/internal/core"
	"cad/internal/scenario"
)

// replay streams the instance through a fresh detector under cfg and
// returns the per-round reports plus the tracker's assembled anomalies.
func replay(t *testing.T, inst *scenario.Instance, cfg core.Config) ([]core.RoundReport, []core.Anomaly) {
	t.Helper()
	det, err := core.NewDetector(inst.Sensors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr := core.NewStreamer(det)
	tr := core.NewTracker(cfg)
	reps, err := sr.PushSeries(inst.Series)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		tr.Push(rep)
	}
	tr.Flush()
	return reps, tr.Drain()
}

// TestScenarioBatchIncrementalEquivalence streams every corpus scenario and
// requires the round decisions of the batch oracle (core.BatchRounds) and
// the anomaly records they assemble into. Detect, the streamer behind a
// series-relative wrapper, must return the same records.
func TestScenarioBatchIncrementalEquivalence(t *testing.T) {
	cfg := scenario.BaseConfig()
	cfg.RefreshEvery = 7 // off the round cadence on purpose

	anyAbnormal := false
	for _, s := range scenario.Corpus() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			inst, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := core.NewDetector(inst.Sensors, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.BatchRounds(oracle, inst.Series)
			if err != nil {
				t.Fatal(err)
			}
			wantTr := core.NewTracker(cfg)
			for _, rep := range want {
				wantTr.Push(rep)
			}
			wantTr.Flush()
			wantAnoms := wantTr.Drain()
			reps, anoms := replay(t, inst, cfg)

			if len(reps) != len(want) {
				t.Fatalf("streamer emitted %d rounds, oracle %d", len(reps), len(want))
			}
			for i, w := range want {
				g := reps[i]
				if g.Abnormal != w.Abnormal || g.Variations != w.Variations || g.WindowEnd != w.WindowEnd ||
					!reflect.DeepEqual(g.Outliers, w.Outliers) {
					t.Errorf("round %d: streamer %+v, oracle %+v", i, g, w)
				}
				if w.Abnormal {
					anyAbnormal = true
				}
			}
			// Identical round decisions must assemble into identical
			// anomaly records, through the streamer and through Detect.
			if !reflect.DeepEqual(anoms, wantAnoms) {
				t.Errorf("anomalies differ:\nstreamer %+v\noracle   %+v", anoms, wantAnoms)
			}
			det, err := core.NewDetector(inst.Sensors, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := det.Detect(inst.Series)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Anomalies, wantAnoms) {
				t.Errorf("anomalies differ:\nDetect %+v\noracle %+v", res.Anomalies, wantAnoms)
			}
		})
	}
	if !anyAbnormal {
		t.Fatal("suite has no power: no scenario produced an abnormal round")
	}
}

// TestScenarioRefreshCadenceInvariance: the exact-refresh cadence is an
// internal performance knob; decisions must not depend on it.
func TestScenarioRefreshCadenceInvariance(t *testing.T) {
	s, ok := scenario.ByName("cascading-backend-timeout")
	if !ok {
		t.Fatal("cascading-backend-timeout missing from corpus")
	}
	inst, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	var ref []core.RoundReport
	for i, every := range []int{0, 1, 16, 97} {
		cfg := scenario.BaseConfig()
		cfg.RefreshEvery = every
		reps, _ := replay(t, inst, cfg)
		if i == 0 {
			ref = reps
			continue
		}
		if len(reps) != len(ref) {
			t.Fatalf("refreshEvery=%d: %d rounds vs %d", every, len(reps), len(ref))
		}
		for r := range reps {
			if reps[r].Abnormal != ref[r].Abnormal || !reflect.DeepEqual(reps[r].Outliers, ref[r].Outliers) {
				t.Errorf("refreshEvery=%d round %d: decisions diverge", every, r)
			}
		}
	}
}

// TestStreamerSaveLoadMidWindow interrupts a streamer with save/load cycles
// at ticks that are not round boundaries — one during warm-up, the others
// mid-window and mid-cycle (RefreshEvery=8) — and checks that the restored
// streamer continues with bit-identical reports and ends in a
// byte-identical state: the partial window and the drifted sliding sums
// must survive verbatim, and after a restore each stripe must be re-summed
// at the rounds an uninterrupted streamer re-sums it at. The cut at tick 222 lands
// before a round that warm-starts Louvain, and whose warm and cold
// partitions differ in their community count: the restored detector must
// take the warm path just as the uninterrupted one does.
func TestStreamerSaveLoadMidWindow(t *testing.T) {
	// w=64, s=4: rounds complete at ticks 64, 68, …, so none of these cuts
	// is a round boundary.
	saveLoadCuts(t, "cpu-throttle", 37, 222, 501, 603)
}

// TestIncrementalSaveLoadBitIdentical runs the same check on another
// corpus stream with a single mid-window cut after warm-up.
func TestIncrementalSaveLoadBitIdentical(t *testing.T) {
	saveLoadCuts(t, "crash-loop", 173)
}

// TestStreamerSaveLoadEveryStripe cuts a stream once before each round of
// a cycle of 8 stripes, two columns into the round's step, so every
// restore lands mid-cycle with slides pending and the next round re-sums
// a different stripe.
func TestStreamerSaveLoadEveryStripe(t *testing.T) {
	// w=64, s=4: round r completes at tick 64+4r, so the cut at tick
	// 64+4r+2 is two columns into round r+1's step, for r+1 = 16, …, 23.
	var cuts []int
	for r := 15; r < 23; r++ {
		cuts = append(cuts, 64+4*r+2)
	}
	saveLoadCuts(t, "noisy-deploy", cuts...)
}

// saveLoadCuts streams a corpus scenario through a streamer with
// RefreshEvery=8, saving and reloading it before each of the given ticks,
// and compares the reports and the final state with an uninterrupted run.
func saveLoadCuts(t *testing.T, name string, cuts ...int) {
	t.Helper()
	s, ok := scenario.ByName(name)
	if !ok {
		t.Fatalf("%s missing from corpus", name)
	}
	inst, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenario.BaseConfig()
	cfg.RefreshEvery = 8
	drive := func(cuts []int) ([]core.RoundReport, []byte) {
		det, err := core.NewDetector(inst.Sensors, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sr := core.NewStreamer(det)
		var reps []core.RoundReport
		col := make([]float64, inst.Sensors)
		for p := 0; p < inst.Series.Len(); p++ {
			if slices.Contains(cuts, p) {
				var buf bytes.Buffer
				if err := sr.SaveState(&buf); err != nil {
					t.Fatal(err)
				}
				if sr, err = core.LoadStreamer(&buf); err != nil {
					t.Fatal(err)
				}
			}
			inst.Series.Column(p, col)
			rep, done, err := sr.Push(col)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				reps = append(reps, rep)
			}
		}
		var final bytes.Buffer
		if err := sr.SaveState(&final); err != nil {
			t.Fatal(err)
		}
		return reps, final.Bytes()
	}
	want, wantState := drive(nil)
	got, gotState := drive(cuts)
	if len(got) != len(want) {
		t.Fatalf("interrupted run: %d rounds, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("round %d differs after save/load:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if !bytes.Equal(gotState, wantState) {
		t.Fatal("final streamer state differs from the uninterrupted run's")
	}
}
