package manager

import (
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"cad/internal/core"
	"cad/internal/faultfs"
	"cad/internal/obs"
)

// crashEnv reads an integer test knob from the environment; make crashtest
// pins the seed so CI failures reproduce.
func crashEnv(name string, def int64) int64 {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

// roundsByTick returns how many detection rounds complete within the first
// k columns under testConfig's windowing (W=30, S=3): the first round at
// tick 30, then one every 3 columns.
func roundsByTick(k int) int {
	if k < 30 {
		return 0
	}
	return (k-30)/3 + 1
}

// alarmsUpTo filters alarms that fired at or before tick k.
func alarmsUpTo(alarms []Alarm, k int) []Alarm {
	var out []Alarm
	for _, a := range alarms {
		if a.Tick <= k {
			out = append(out, a)
		}
	}
	return out
}

func sameAlarms(t *testing.T, label string, got, want []Alarm) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d alarms, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Round != w.Round || g.Tick != w.Tick || g.Variations != w.Variations ||
			g.Score != w.Score || !g.Time.Equal(w.Time) {
			t.Fatalf("%s: alarm %d differs:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestCrashRecoverEquivalence is the durability layer's core guarantee:
// kill the process at a random byte offset of its disk traffic, recover,
// and the stream marches through the exact round reports — including
// mid-window and warm-up state — of a process that never crashed. Alarms
// replayed from the WAL keep their original arrival timestamps.
//
// The crash points land inside the streamer's sliding-sum accumulator's
// lifetime: recovery must restore the drifted running sums verbatim for the
// post-restart rounds to stay bit-identical (RefreshEvery=8 makes the crash
// window span several exact-refresh boundaries).
//
// CAD_CRASH_SEED and CAD_CRASH_ITERS override the default seed and
// iteration count (make crashtest pins them).
func TestCrashRecoverEquivalence(t *testing.T) {
	t.Run("incremental", func(t *testing.T) {
		cfg := testConfig()
		cfg.RefreshEvery = 8
		crashRecoverEquivalence(t, cfg)
	})
}

func crashRecoverEquivalence(t *testing.T, cfg core.Config) {
	const ticks = 260
	seed := crashEnv("CAD_CRASH_SEED", 1)
	iters := int(crashEnv("CAD_CRASH_ITERS", 6))
	cols := makeCols(seed, ticks)
	want := driveStreamerCfg(t, cfg, cols)

	// Reference run: a durable manager that never crashes, driven with the
	// same clock-call pattern (create, then one column per batch) as the
	// crashing runs, so WAL timestamps — and with them alarm times — line
	// up bit-identically.
	ref := New(durableOptions(t.TempDir()))
	if _, err := ref.Create("plant", 8, cfg); err != nil {
		t.Fatal(err)
	}
	for _, col := range cols {
		if _, err := ref.Ingest("plant", col); err != nil {
			t.Fatal(err)
		}
	}
	refAlarms, err := ref.Alarms("plant", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(refAlarms) == 0 {
		t.Fatal("reference run produced no alarms; the equivalence check would be vacuous")
	}

	// Sizing run: measure the total disk traffic of an uninterrupted run so
	// crash points can be drawn uniformly across it.
	sizing := faultfs.New(faultfs.OS())
	{
		o := durableOptions(t.TempDir())
		o.FS = sizing
		m := New(o)
		if _, err := m.Create("plant", 8, cfg); err != nil {
			t.Fatal(err)
		}
		for _, col := range cols {
			if _, err := m.Ingest("plant", col); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := sizing.BytesWritten()
	if total == 0 {
		t.Fatal("sizing run wrote nothing")
	}

	rng := rand.New(rand.NewSource(seed))
	for iter := 0; iter < iters; iter++ {
		budget := 1 + rng.Int63n(total)
		dir := t.TempDir()
		fault := faultfs.New(faultfs.OS())
		fault.CrashAfterBytes(budget)

		// Run until the simulated process dies. Ingest itself never errors
		// on durability loss (it degrades), so the kill signal is the
		// filesystem reporting the crash point was reached.
		o := durableOptions(dir)
		o.FS = fault
		m1 := New(o)
		pushed := 0
		if _, err := m1.Create("plant", 8, cfg); err != nil {
			t.Fatalf("iter %d (budget %d): Create: %v", iter, budget, err)
		}
		for _, col := range cols {
			if fault.Crashed() {
				break
			}
			if _, err := m1.Ingest("plant", col); err != nil {
				t.Fatalf("iter %d (budget %d): ingest at tick %d: %v", iter, budget, pushed, err)
			}
			pushed++
		}

		// The restarted process recovers over the real filesystem.
		m2 := New(durableOptions(dir))
		stats, err := m2.Recover()
		if err != nil {
			t.Fatalf("iter %d (budget %d): Recover: %v", iter, budget, err)
		}
		k := 0
		if stats.Recovered == 1 {
			st, err := m2.Status("plant")
			if err != nil {
				t.Fatalf("iter %d (budget %d): recovered Status: %v", iter, budget, err)
			}
			k = st.Ticks
		} else if _, err := m2.Create("plant", 8, cfg); err != nil {
			// Crashed before the first checkpoint completed: nothing usable
			// was persisted, but the id must stay recreatable.
			t.Fatalf("iter %d (budget %d): recreate after %+v: %v", iter, budget, stats, err)
		}
		if k > pushed {
			t.Fatalf("iter %d (budget %d): recovered %d ticks but only %d were pushed", iter, budget, k, pushed)
		}

		// Alarms restored from disk keep their pre-crash timestamps.
		gotAlarms, err := m2.Alarms("plant", 0, 0)
		if err != nil {
			t.Fatalf("iter %d: Alarms: %v", iter, err)
		}
		sameAlarms(t, "recovered alarms", gotAlarms, alarmsUpTo(refAlarms, k))

		// Continuing from the recovered state must complete the exact
		// rounds an uninterrupted run completes after tick k.
		results, err := m2.IngestBatch("plant", cols[k:])
		if err != nil {
			t.Fatalf("iter %d (budget %d): continue after recovery: %v", iter, budget, err)
		}
		sameReports(t, "post-recovery rounds", roundsOf(results), want[roundsByTick(k):])
	}
}

// TestCrashRecoverChurn drives several streams concurrently through
// repeated abandon/recover generations and checks that every stream's
// concatenated round reports equal an uninterrupted single-stream run.
// Run under -race this also exercises the durability layer's locking.
func TestCrashRecoverChurn(t *testing.T) {
	const (
		streams     = 5
		ticks       = 180
		generations = 3
	)
	dir := t.TempDir()
	ids := make([]string, streams)
	cols := make(map[string][][]float64, streams)
	want := make(map[string][]core.RoundReport, streams)
	reports := make(map[string][]core.RoundReport, streams)
	for i := range ids {
		id := "plant-" + strconv.Itoa(i)
		ids[i] = id
		cols[id] = makeCols(int64(100+i), ticks)
		want[id] = driveStreamer(t, cols[id])
	}

	phase := ticks / generations
	for gen := 0; gen < generations; gen++ {
		o := durableOptions(dir)
		o.CheckpointEvery = 40
		o.Registry = obs.NewRegistry()
		m := New(o)
		if _, err := m.Recover(); err != nil {
			t.Fatalf("gen %d: Recover: %v", gen, err)
		}
		var (
			mu sync.Mutex
			wg sync.WaitGroup
		)
		errs := make(chan error, streams)
		for _, id := range ids {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				if gen == 0 {
					if _, err := m.Create(id, 8, testConfig()); err != nil {
						errs <- err
						return
					}
				}
				lo, hi := gen*phase, (gen+1)*phase
				if gen == generations-1 {
					hi = ticks
				}
				results, err := m.IngestBatch(id, cols[id][lo:hi])
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				reports[id] = append(reports[id], roundsOf(results)...)
				mu.Unlock()
			}(id)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("gen %d: %v", gen, err)
		}
		// The manager is abandoned without any shutdown hook — the next
		// generation must rebuild everything from disk.
	}
	for _, id := range ids {
		sameReports(t, id, reports[id], want[id])
	}
}
