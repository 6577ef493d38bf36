package main

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cad"
)

func writeSeries(t *testing.T, path string, seed int64, broken bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := cad.ZeroSeries(8, 600)
	for tick := 0; tick < 600; tick++ {
		a := math.Sin(2 * math.Pi * float64(tick) / 25)
		b := math.Cos(2 * math.Pi * float64(tick) / 40)
		for i := 0; i < 8; i++ {
			latent := a
			if i >= 4 {
				latent = b
			}
			v := latent*(1+0.1*float64(i)) + 0.05*rng.NormFloat64()
			if broken && i <= 1 && tick >= 300 && tick < 420 {
				v = rng.NormFloat64()
			}
			s.Set(i, tick, v)
		}
	}
	if err := s.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
}

func TestDetectEndToEnd(t *testing.T) {
	dir := t.TempDir()
	warm := filepath.Join(dir, "warm.csv")
	live := filepath.Join(dir, "live.csv")
	writeSeries(t, warm, 1, false)
	writeSeries(t, live, 2, true)

	if err := detect(live, warm, "", 40, 4, 3, 0.4, 0.2, false, filepath.Join(dir, "report.html")); err != nil {
		t.Fatalf("detect: %v", err)
	}
	// With names, without warm-up, auto windowing.
	if err := detect(live, "", "", 0, 0, 0, 0.5, 0.3, true, ""); err != nil {
		t.Fatalf("detect without warm-up: %v", err)
	}
}

func TestDetectErrors(t *testing.T) {
	dir := t.TempDir()
	if err := detect(filepath.Join(dir, "missing.csv"), "", "", 0, 0, 0, 0.5, 0.3, false, ""); err == nil {
		t.Error("missing input should error")
	}
	live := filepath.Join(dir, "live.csv")
	writeSeries(t, live, 3, false)
	if err := detect(live, filepath.Join(dir, "missing.csv"), "", 0, 0, 0, 0.5, 0.3, false, ""); err == nil {
		t.Error("missing warm-up should error")
	}
	// Invalid explicit windowing.
	if err := detect(live, "", "", 4, 4, 0, 0.5, 0.3, false, ""); err == nil {
		t.Error("s == w should error")
	}
}

func TestReportWritten(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.csv")
	writeSeries(t, live, 4, true)
	out := filepath.Join(dir, "out.html")
	if err := detect(live, "", "", 40, 4, 3, 0.4, 0.2, false, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("report missing SVG chart")
	}
	// Unwritable report path errors.
	if err := detect(live, "", "", 40, 4, 3, 0.4, 0.2, false, "/nonexistent/x.html"); err == nil {
		t.Error("bad report path should error")
	}
}

func TestDetectWithConfigFile(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.csv")
	writeSeries(t, live, 2, true)
	path := filepath.Join(dir, "detector.json")
	doc := `{"window":{"w":40,"s":4},"k":3,"tau":0.4,"theta":0.2,"eta":3,
	         "sigmaFloor":0.5,"minHistory":8,"rcMode":"sliding","rcHorizon":8}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := detect(live, "", path, 0, 0, 0, 0.5, 0.3, false, ""); err != nil {
		t.Fatalf("detect with config file: %v", err)
	}
	// Unknown fields in the file fail loudly.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"taw":0.4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := detect(live, "", bad, 0, 0, 0, 0.5, 0.3, false, ""); err == nil {
		t.Error("typoed config field should error")
	}
	if err := detect(live, "", filepath.Join(dir, "missing.json"), 0, 0, 0, 0.5, 0.3, false, ""); err == nil {
		t.Error("missing config file should error")
	}
}

// TestMain lets a test run the command itself: with CADDETECT_MAIN set, the
// test binary is caddetect, reading its flags from the command line.
func TestMain(m *testing.M) {
	if os.Getenv("CADDETECT_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDetectRejectsNaN: a CSV with a NaN reading — the CSV parser accepts
// the token — makes caddetect exit 1 with an error that names the sensor
// and the time point, instead of detecting on poisoned correlations.
func TestDetectRejectsNaN(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.csv")
	s := cad.ZeroSeries(8, 600)
	for tick := 0; tick < 600; tick++ {
		for i := 0; i < 8; i++ {
			s.Set(i, tick, math.Sin(float64(tick+i)/7))
		}
	}
	s.Set(2, 123, math.NaN())
	if err := s.SaveCSV(live); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-input", live)
	cmd.Env = append(os.Environ(), "CADDETECT_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("caddetect exited with %v, want status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "non-finite reading: sensor 2 at time point 123") {
		t.Fatalf("error does not name the sensor:\n%s", out)
	}
}
