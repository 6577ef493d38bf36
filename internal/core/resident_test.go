package core

import (
	"fmt"
	"runtime"
	"testing"

	"cad/internal/mts"
	"cad/internal/offheap"
	"cad/internal/simulator"
)

// wideColumns returns the columns of a clean simulated series of n sensors
// in communities of 25, the benchmark's wide workload at n=1000.
func wideColumns(t testing.TB, n, length int) [][]float64 {
	t.Helper()
	gen, err := simulator.New(simulator.Config{Seed: 19, Sensors: n, Communities: max(2, n/25), Length: length})
	if err != nil {
		t.Fatal(err)
	}
	series := gen.Clean()
	cols := make([][]float64, series.Len())
	for p := range cols {
		cols[p] = series.Column(p, nil)
	}
	return cols
}

// wideConfig is the benchmark's wide-workload config: w=64, S=4, k=10,
// τ=0.4, θ below the co-appearance plateau.
func wideConfig(refreshEvery int) Config {
	cfg := testConfig()
	cfg.Window = mts.Windowing{W: 64, S: 4}
	cfg.K, cfg.Tau, cfg.Theta = 10, 0.4, 0.018
	cfg.RefreshEvery = refreshEvery
	return cfg
}

// TestStreamerResidentHeap bounds what a stream keeps live once it has run
// two full cycles of exact stripes, on the Go heap and off it (the ring and
// the triangle, counted by offheap.Bytes): within 10% of its layout, plus
// 16 KiB for the small per-stream state of the detector, Louvain and the
// per-sensor vectors, which the 10% covers at n=1000 but not at n=32. The
// layout is the ring (n·w) and the packed triangle (n(n+1)/2), each in
// whole pages where it is mapped, the pending slides (2·S·n), one n·K
// candidate selection plus one per sweep helper, and the graph's CSR with
// the spare offset and id arrays the repair links into. So a stream that
// kept a window-sized buffer (n·w), or a second selection array or
// triangle, between rounds fails, on the heap or off it. The reading
// starts after the finalizers of earlier tests' dropped blocks have run,
// and one GC runs before it ends, so a sync.Pool's victim cache would
// still count. The n=32 figure is averaged over 64 streams, a fleet's
// width, since the runtime's own allocations are of the same size as one
// such stream.
func TestStreamerResidentHeap(t *testing.T) {
	const every = 64
	for _, n := range []int{32, 1000} {
		streams := 1
		if n == 32 {
			streams = 64
		}
		cfg := wideConfig(every)
		w, step := cfg.Window.W, cfg.Window.S
		cols := wideColumns(t, n, w+2*every*step)
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("n=%d/procs=%d", n, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var before, after runtime.MemStats
				offheap.Settle()
				runtime.ReadMemStats(&before)
				mappedBefore := offheap.Bytes()
				srs := make([]*Streamer, streams)
				for s := range srs {
					det, err := NewDetector(n, cfg)
					if err != nil {
						t.Fatal(err)
					}
					srs[s] = NewStreamer(det)
					for _, col := range cols {
						if _, _, err := srs[s].Push(col); err != nil {
							t.Fatal(err)
						}
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				mapped := float64(offheap.Bytes()-mappedBefore) / float64(streams)
				live := (float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(streams) + mapped

				const word, edge, header = 8, 16, 24
				helpers := max(1, min(procs, n*(n-1)/2/(1<<17))) - 1 // tsg's sweep rule
				_, nbr, _ := srs[0].det.incTSG.Graph().CSR()
				// A mapped block costs whole pages.
				block := func(k int) int { return max(word*k, int(offheap.Size(k))) }
				layout := block(n*w) + block(n*(n+1)/2) + word*2*step*n +
					(1+helpers)*(edge*n*cfg.K+header*n) +
					2*word*(n+1) + 3*word*len(nbr)
				bound := 1.1*float64(layout) + 16<<10
				t.Logf("live %.0f B per stream, %.0f B of it mapped, layout %d B, bound %.0f B", live, mapped, layout, bound)
				if live > bound {
					t.Errorf("a stream keeps %.0f B live, more than %.0f B: its layout of %d B plus 10%% and 16 KiB", live, bound, layout)
				}
				for _, sr := range srs {
					sr.Release()
				}
			})
		}
	}
}
