package viz

import (
	"bytes"
	"encoding/xml"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cad/internal/core"
	"cad/internal/eval"
	"cad/internal/louvain"
	"cad/internal/mts"
	"cad/internal/tsg"
)

func TestCommunityColor(t *testing.T) {
	if CommunityColor(0) != "#2a78d6" {
		t.Errorf("slot 0 = %s", CommunityColor(0))
	}
	seen := map[string]bool{}
	for c := 0; c < 8; c++ {
		col := CommunityColor(c)
		if seen[col] {
			t.Errorf("duplicate categorical color %s", col)
		}
		seen[col] = true
	}
	// Beyond the palette: folds into the muted other, never cycles.
	if CommunityColor(8) != colorOther || CommunityColor(99) != colorOther {
		t.Error("overflow communities must use the other-gray")
	}
	if CommunityColor(-1) != colorOther {
		t.Error("invalid community must use the other-gray")
	}
}

func TestWriteDOT(t *testing.T) {
	g := tsg.FromEdges(4, []tsg.Edge{{U: 0, V: 1, W: 0.9}, {U: 2, V: 3, W: -0.8}})
	p := louvain.Partition{Of: []int{0, 0, 1, 1}, Count: 2}
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, p, []string{"pump", "valve", "fan", "belt"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph tsg {", `label="pump"`, `label="belt"`, "n0 -- n1", "n2 -- n3", "style=dashed", CommunityColor(0), CommunityColor(1)} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	// Each edge exactly once.
	if strings.Count(out, " -- ") != 2 {
		t.Errorf("edge count wrong:\n%s", out)
	}
}

func validXML(t *testing.T, svg []byte) {
	t.Helper()
	dec := xml.NewDecoder(bytes.NewReader(svg))
	for {
		if _, err := dec.Token(); err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("invalid SVG XML: %v\n%s", err, svg)
		}
	}
}

func TestScoreTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 200)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	scores[100] = 6
	detected := []eval.Segment{{Start: 95, End: 110}}
	truth := []eval.Segment{{Start: 90, End: 112}}
	var buf bytes.Buffer
	if err := ScoreTimeline(&buf, scores, detected, truth, 3, ChartConfig{Title: "scores"}); err != nil {
		t.Fatal(err)
	}
	validXML(t, buf.Bytes())
	out := buf.String()
	for _, want := range []string{colorCritical, colorWarning, "stroke-dasharray", "detected [95,110)", "ground truth [90,112)", categorical[0]} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if err := ScoreTimeline(&buf, nil, nil, nil, 3, ChartConfig{}); err == nil {
		t.Error("empty scores should error")
	}
	// Single-point series must not divide by zero.
	buf.Reset()
	if err := ScoreTimeline(&buf, []float64{1}, nil, nil, 0, ChartConfig{}); err != nil {
		t.Fatal(err)
	}
	validXML(t, buf.Bytes())
}

func TestScoreTimelineNaN(t *testing.T) {
	scores := []float64{1, math.NaN(), 2, math.Inf(1), 3}
	var buf bytes.Buffer
	if err := ScoreTimeline(&buf, scores, nil, nil, 0, ChartConfig{}); err != nil {
		t.Fatal(err)
	}
	validXML(t, buf.Bytes())
	if strings.Contains(buf.String(), "NaN") {
		t.Error("NaN leaked into the SVG")
	}
}

func TestSparklines(t *testing.T) {
	rows := [][]float64{
		{1, 2, 3, 2, 1, 2, 3, 2},
		{5, 5, 5, 5, 5, 5, 5, 5}, // constant row: no division by zero
		{0, -1, 0, 1, 0, -1, 0, 1},
	}
	var buf bytes.Buffer
	err := Sparklines(&buf, rows, []string{"a", "b", "c"}, map[int]bool{0: true},
		[]eval.Segment{{Start: 2, End: 5}}, ChartConfig{Title: "sensors"})
	if err != nil {
		t.Fatal(err)
	}
	validXML(t, buf.Bytes())
	out := buf.String()
	if !strings.Contains(out, ">a</text>") || !strings.Contains(out, ">c</text>") {
		t.Errorf("sparkline labels missing:\n%s", out)
	}
	if !strings.Contains(out, categorical[0]) {
		t.Error("highlight color missing")
	}
	if err := Sparklines(&buf, nil, nil, nil, nil, ChartConfig{}); err == nil {
		t.Error("empty rows should error")
	}
}

func TestEscape(t *testing.T) {
	if escape(`<a&"b">`) != "&lt;a&amp;&quot;b&quot;&gt;" {
		t.Errorf("escape = %q", escape(`<a&"b">`))
	}
}

func TestHTMLReport(t *testing.T) {
	// Build a small real detection to feed the report.
	rng := rand.New(rand.NewSource(2))
	series := mts.Zeros(8, 500)
	for tt := 0; tt < 500; tt++ {
		a := math.Sin(2 * math.Pi * float64(tt) / 25)
		b := math.Cos(2 * math.Pi * float64(tt) / 40)
		for i := 0; i < 8; i++ {
			latent := a
			if i >= 4 {
				latent = b
			}
			v := latent*(1+0.2*float64(i%4)) + 0.05*rng.NormFloat64()
			if i <= 1 && tt >= 250 && tt < 360 {
				v = rng.NormFloat64()
			}
			series.Set(i, tt, v)
		}
	}
	cfg := core.Config{
		Window: mts.Windowing{W: 40, S: 4}, K: 3, Tau: 0.4, Theta: 0.2,
		Eta: 3, SigmaFloor: 0.5, MinHistory: 8, RCMode: core.RCSliding, RCHorizon: 5,
	}
	det, err := core.NewDetector(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Detect(series)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]bool, 500)
	for tt := 250; tt < 360; tt++ {
		truth[tt] = true
	}
	var buf bytes.Buffer
	if err := HTMLReport(&buf, "unit test", series, res, truth, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<!DOCTYPE html>", "unit test", "Deviation score", "Detected anomalies", "<svg"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(res.Anomalies) > 0 && !strings.Contains(out, "Implicated sensors") {
		t.Error("report missing sparkline section despite anomalies")
	}

	// Empty result renders the "none" row.
	empty := &core.Result{PointScores: make([]float64, 500), Rounds: make([]core.RoundReport, 10)}
	buf.Reset()
	if err := HTMLReport(&buf, "empty", series, empty, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "none") {
		t.Error("empty report missing the none row")
	}
}
