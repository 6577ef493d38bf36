package manager

import (
	"testing"
	"time"

	"cad/internal/mts"
	"cad/internal/offheap"
	"cad/internal/stats"
)

// TestOffheapRelease follows a wide stream's off-heap ring and triangle
// through the manager: Delete and eviction unmap them at once, with no
// garbage collection, and a restored or imported stream maps exactly one
// stream's blocks. cad_offheap_bytes follows every step.
func TestOffheapRelease(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 200
	}
	const w = 64
	cfg := testConfig()
	cfg.Window = mts.Windowing{W: w, S: 4}
	cols := wideCols(3, n, w+4)
	per := offheap.Size(n*w) + offheap.Size(stats.PackedLen(n))
	for _, mode := range []struct {
		name string
		opt  func(dir string) Options
	}{
		{"memory", func(dir string) Options { return Options{SnapshotDir: dir} }},
		{"durable", durableOptions},
	} {
		t.Run(mode.name, func(t *testing.T) {
			offheap.Settle()
			base := offheap.Bytes()
			mapped := func(m *Manager, step string, streams int64) {
				t.Helper()
				if got := offheap.Bytes() - base; got != streams*per {
					t.Fatalf("%s: %d bytes mapped, want %d streams' %d", step, got, streams, streams*per)
				}
				if got := m.offheapG.Value(); got != float64(offheap.Bytes()) {
					t.Fatalf("%s: cad_offheap_bytes %v, want %d", step, got, offheap.Bytes())
				}
			}
			m := New(mode.opt(t.TempDir()))
			create := func(id string) {
				t.Helper()
				if _, err := m.Create(id, n, cfg); err != nil {
					t.Fatal(err)
				}
				mapped(m, "create "+id, 1)
				if rounds := roundsOf(ingestAll(t, m, id, cols)); len(rounds) != 2 {
					t.Fatalf("%d rounds, want 2", len(rounds))
				}
			}

			create("deleted")
			if err := m.Delete("deleted"); err != nil {
				t.Fatal(err)
			}
			mapped(m, "delete", 0)

			create("moved")
			if ok, err := m.evict(m.residentStream("moved"), time.Time{}); !ok || err != nil {
				t.Fatalf("evict: %v, %v", ok, err)
			}
			mapped(m, "evict", 0)
			if _, err := m.Status("moved"); err != nil {
				t.Fatal(err)
			}
			mapped(m, "restore", 1)

			exp, err := m.Export("moved")
			if err != nil {
				t.Fatal(err)
			}
			dst := New(mode.opt(t.TempDir()))
			if _, err := dst.Import(exp); err != nil {
				t.Fatal(err)
			}
			mapped(dst, "import", 2)
			for _, m := range []*Manager{m, dst} {
				if err := m.Delete("moved"); err != nil {
					t.Fatal(err)
				}
			}
			mapped(dst, "delete both", 0)
		})
	}
}
