package manager

import (
	"strconv"
	"sync"
	"testing"

	"cad/internal/core"
	"cad/internal/obs"
)

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
