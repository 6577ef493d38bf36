package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cad/internal/mts"
)

func streamTestConfig() Config {
	return Config{
		Window: mts.Windowing{W: 30, S: 3}, K: 3, Tau: 0.4, Theta: 0.2,
		Eta: 3, SigmaFloor: 0.5, MinHistory: 8, RCMode: RCSliding, RCHorizon: 5,
	}
}

// streamColumn synthesizes one 8-sensor reading; sensors 0,1 decouple when
// broken.
func streamColumn(rng *rand.Rand, tick int, broken bool) []float64 {
	col := make([]float64, 8)
	a := math.Sin(2 * math.Pi * float64(tick) / 20)
	b := math.Cos(2 * math.Pi * float64(tick) / 33)
	for i := range col {
		latent := a
		if i >= 4 {
			latent = b
		}
		col[i] = latent*(1+0.2*float64(i%4)) + 0.04*rng.NormFloat64()
	}
	if broken {
		col[0] = rng.NormFloat64()
		col[1] = rng.NormFloat64()
	}
	return col
}

func TestLoadStreamerRejectsGarbage(t *testing.T) {
	if _, err := LoadStreamer(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadStreamer(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// TestTrackerSaveLoadOpenAnomaly interrupts a tracker while an anomaly is
// open and checks the restored tracker closes it exactly as the
// uninterrupted one does — same span, same root-cause order.
func TestTrackerSaveLoadOpenAnomaly(t *testing.T) {
	cfg := streamTestConfig()
	reports := []RoundReport{
		{Round: 10, Abnormal: false},
		{Round: 11, Abnormal: true, Outliers: []int{2}},
		{Round: 12, Abnormal: true, Outliers: []int{2, 5}},
		{Round: 13, Abnormal: false},
		{Round: 14, Abnormal: false},
		{Round: 15, Abnormal: true, Outliers: []int{1}},
		{Round: 16, Abnormal: false},
		{Round: 17, Abnormal: false},
	}

	ref := NewTracker(cfg)
	var want []Anomaly
	for _, rep := range reports {
		ref.Push(rep)
		want = append(want, ref.Drain()...)
	}

	tr := NewTracker(cfg)
	var got []Anomaly
	for i, rep := range reports {
		// Interrupt with an anomaly open (after round 12) and with one
		// closed-but-undrained (we deliberately do not Drain before saving
		// at i == 4).
		if i == 3 || i == 5 {
			var buf bytes.Buffer
			if err := tr.SaveState(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadTracker(&buf)
			if err != nil {
				t.Fatal(err)
			}
			tr = restored
		}
		tr.Push(rep)
		got = append(got, tr.Drain()...)
	}

	if !reflect.DeepEqual(got, want) {
		t.Errorf("tracker save/load changed anomalies:\n got %+v\nwant %+v", got, want)
	}
	if len(want) == 0 {
		t.Fatal("test produced no anomalies — reports need adjusting")
	}
}

func TestLoadTrackerRejectsGarbage(t *testing.T) {
	if _, err := LoadTracker(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage accepted")
	}
}
