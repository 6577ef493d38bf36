package manager

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cad/internal/core"
	"cad/internal/wal"
)

// TestRecoverFromGenesis: before its first checkpoint a created stream has
// no snapshot, and recovery rebuilds it from its WAL's genesis record plus
// the columns logged after it, reporting like a stream that never crashed.
// The segments hold only the columns.
func TestRecoverFromGenesis(t *testing.T) {
	dir := t.TempDir()
	cols := makeCols(21, 200)
	want := driveStreamer(t, cols)
	m1 := New(durableOptions(dir))
	for _, id := range []string{"plant", "idle"} {
		if _, err := m1.Create(id, 8, testConfig()); err != nil {
			t.Fatal(err)
		}
	}
	before, err := m1.Status("plant")
	if err != nil {
		t.Fatal(err)
	}
	got := roundsOf(ingestAll(t, m1, "plant", cols[:100]))
	if _, err := os.Stat(filepath.Join(dir, "snapshots")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a create wrote a snapshot: %v", err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "plant", "00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 * (24 + 8*8); len(seg) != want {
		t.Fatalf("plant's segment holds %d bytes, want %d: 100 column frames", len(seg), want)
	}

	m2 := New(durableOptions(dir))
	stats, err := m2.Recover()
	if err != nil || stats.Recovered != 2 || stats.Replayed != 100 {
		t.Fatalf("Recover = %+v, %v; want 2 streams and 100 records", stats, err)
	}
	for _, id := range []string{"plant", "idle"} {
		cfg, err := m2.Config(id)
		if err != nil {
			t.Fatal(err)
		}
		if wantCfg := m1.residentStream(id).det.Config(); !reflect.DeepEqual(cfg, wantCfg) {
			t.Fatalf("%s recovered with config %+v, want %+v", id, cfg, wantCfg)
		}
	}
	after, err := m2.Status("plant")
	if err != nil || after.Ticks != 100 || !after.Created.Equal(before.Created) {
		t.Fatalf("recovered Status = %+v, %v; want 100 ticks, created %v", after, err, before.Created)
	}
	got = append(got, roundsOf(ingestAll(t, m2, "plant", cols[100:]))...)
	sameReports(t, "recovered from genesis", got, want)
}

// TestGenesisQuarantined: a log with no snapshot and no genesis record it
// can rebuild from is quarantined, and the id is recreatable. Every case
// but "no head" also logs one column after the head.
func TestGenesisQuarantined(t *testing.T) {
	record := func(g genesis) []byte {
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	valid := record(genesis{ID: "plant", Sensors: 8, Config: testConfig()})
	cases := []struct {
		name string
		head []byte
		// torn cuts the head file short by this many bytes.
		torn int
	}{
		{"no head", nil, 0},
		{"torn head", valid, 1},
		{"bad json", []byte(`{"id":"plant","sensors":8,`), 0},
		{"unknown field", []byte(`{"id":"plant","sensors":8,"config":{},"extra":1}`), 0},
		{"other id", record(genesis{ID: "other", Sensors: 8, Config: testConfig()}), 0},
		{"bad config", record(genesis{ID: "plant", Sensors: 1, Config: testConfig()}), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := wal.Open(filepath.Join(dir, "plant"), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.head != nil {
				if err := l.WriteHead(time.Unix(0, 1), tc.head); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Append(1, time.Unix(0, 2), encodeColumn(make([]float64, 8))); err != nil {
				t.Fatal(err)
			}
			l.Close()
			if tc.torn > 0 {
				head := filepath.Join(dir, "plant", "head")
				info, err := os.Stat(head)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(head, info.Size()-int64(tc.torn)); err != nil {
					t.Fatal(err)
				}
			}
			m := New(durableOptions(dir))
			stats, err := m.Recover()
			if err != nil || stats.Recovered != 0 || stats.Quarantined != 1 {
				t.Fatalf("Recover = %+v, %v; want 1 quarantined", stats, err)
			}
			if _, err := os.Stat(filepath.Join(dir, "plant"+corruptSuffix)); err != nil {
				t.Fatalf("log not quarantined: %v", err)
			}
			if restored, err := m.Create("plant", 8, testConfig()); err != nil || restored {
				t.Fatalf("recreate after quarantine = restored %v, %v", restored, err)
			}
		})
	}
}

// FuzzDecodeGenesis feeds decodeGenesis arbitrary genesis payloads. It
// must refuse them or return a record that encodes back to itself and
// describes a detector that builds and ingests.
func FuzzDecodeGenesis(f *testing.F) {
	valid, err := json.Marshal(genesis{ID: "plant", Sensors: 8, Config: testConfig()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(valid, valid...))
	f.Add([]byte(`{"id":"plant","sensors":8,"config":{},"extra":1}`))
	f.Add([]byte(`{"id":"../x","sensors":8}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := decodeGenesis(data)
		if err != nil {
			return
		}
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeGenesis(raw)
		if err != nil || !reflect.DeepEqual(again, g) {
			t.Fatalf("re-encoded record decodes to %+v, %v; want %+v", again, err, g)
		}
		// Build and drive only detectors small enough for a fuzz worker.
		cfg := g.Config
		if g.Sensors > 64 || cfg.Window.W > 256 || cfg.RCHorizon > 256 || cfg.HistoryHorizon > 4096 {
			return
		}
		det, err := core.NewDetector(g.Sensors, cfg)
		if err != nil {
			t.Fatalf("decoded record does not build: %v", err)
		}
		s := core.NewStreamer(det)
		rng := rand.New(rand.NewSource(1))
		col := make([]float64, g.Sensors)
		for p := 0; p < 2*cfg.Window.W; p++ {
			for i := range col {
				col[i] = rng.NormFloat64()
			}
			if _, _, err := s.Push(col); err != nil {
				t.Fatalf("decoded detector failed at push %d: %v", p, err)
			}
		}
	})
}
