package manager

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cad/internal/core"
)

const benchStreams = 8

// benchCols precomputes one healthy series per stream so the benchmark loop
// measures ingestion, not column synthesis.
func benchCols(ticks int) [][][]float64 {
	cols := make([][][]float64, benchStreams)
	for i := range cols {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		cols[i] = make([][]float64, ticks)
		for tick := range cols[i] {
			cols[i][tick] = column(rng, tick, false)
		}
	}
	return cols
}

// BenchmarkManagerIngest drives 8 streams from parallel goroutines through
// the sharded-lock manager. Compare against
// BenchmarkGlobalMutexIngestBaseline: on multicore hardware the manager
// scales with the core count because streams only contend on the brief
// registry-map lookup, never on each other's detection rounds.
func BenchmarkManagerIngest(b *testing.B) {
	m := New(Options{Capacity: benchStreams})
	for i := 0; i < benchStreams; i++ {
		if _, err := m.Create(fmt.Sprintf("s%d", i), 8, testConfig()); err != nil {
			b.Fatal(err)
		}
	}
	cols := benchCols(256)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		for i := 0; i < benchStreams; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id := fmt.Sprintf("s%d", i)
				col := cols[i][n%len(cols[i])]
				if _, err := m.Ingest(id, col); err != nil {
					b.Error(err)
				}
			}(i)
		}
		wg.Wait()
	}
}

// globalMutexFleet is the pre-manager architecture: every stream behind one
// service-wide mutex, so a detection round on any stream stalls ingestion
// on all of them. Kept as the benchmark baseline the sharded manager is
// measured against.
type globalMutexFleet struct {
	mu        sync.Mutex
	streamers map[string]*core.Streamer
}

func (f *globalMutexFleet) ingest(id string, col []float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, _, err := f.streamers[id].Push(col)
	return err
}

// BenchmarkGlobalMutexIngestBaseline is the single-lock counterpart of
// BenchmarkManagerIngest.
func BenchmarkGlobalMutexIngestBaseline(b *testing.B) {
	f := &globalMutexFleet{streamers: make(map[string]*core.Streamer)}
	for i := 0; i < benchStreams; i++ {
		det, err := core.NewDetector(8, testConfig())
		if err != nil {
			b.Fatal(err)
		}
		f.streamers[fmt.Sprintf("s%d", i)] = core.NewStreamer(det)
	}
	cols := benchCols(256)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		for i := 0; i < benchStreams; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id := fmt.Sprintf("s%d", i)
				col := cols[i][n%len(cols[i])]
				if err := f.ingest(id, col); err != nil {
					b.Error(err)
				}
			}(i)
		}
		wg.Wait()
	}
}

// BenchmarkCreateDurable creates n=8 streams with a WAL under each fsync
// policy: under "always" each create is durable before it returns, under
// "interval" once the next Flush returns.
func BenchmarkCreateDurable(b *testing.B) {
	for _, policy := range []string{FsyncAlways, FsyncInterval} {
		b.Run(policy, func(b *testing.B) {
			m := New(Options{WALDir: b.TempDir(), Fsync: policy, Capacity: b.N + 1})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Create(fmt.Sprintf("s%d", i), 8, testConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
