package offheap

import (
	"os"
	"testing"
)

func TestBlockZeroedCountedFreed(t *testing.T) {
	const n = 3*1024 + 1 // not a whole number of pages
	before := Bytes()
	b := New(n)
	xs := b.Floats()
	if len(xs) != n {
		t.Fatalf("len(Floats()) = %d, want %d", len(xs), n)
	}
	for i, x := range xs {
		if x != 0 {
			t.Fatalf("Floats()[%d] = %v, want a zero-filled block", i, x)
		}
		xs[i] = float64(i)
	}
	for i, x := range b.Floats() {
		if x != float64(i) {
			t.Fatalf("Floats()[%d] = %v after writing %d", i, x, i)
		}
	}
	if got := Bytes() - before; got != Size(n) {
		t.Fatalf("a block of %d floats maps %d bytes, Size says %d", n, got, Size(n))
	}
	if s := Size(n); s != 0 && (s < 8*n || s%int64(os.Getpagesize()) != 0) {
		t.Fatalf("Size(%d) = %d, want 0 or %d rounded up to whole pages", n, s, 8*n)
	}
	b.Free()
	if got := Bytes(); got != before {
		t.Fatalf("Bytes() = %d after Free, want %d", got, before)
	}
	if b.Floats() != nil {
		t.Fatal("Floats() of a freed block is not nil")
	}
	b.Free()
	if got := Bytes(); got != before {
		t.Fatalf("Bytes() = %d after a second Free, want %d", got, before)
	}
}

func TestEmptyBlock(t *testing.T) {
	before := Bytes()
	b := New(0)
	if len(b.Floats()) != 0 || Bytes() != before {
		t.Fatalf("New(0): %d floats, %d bytes mapped", len(b.Floats()), Bytes()-before)
	}
	b.Free()
}

// TestFinalizerFreesDroppedBlock drops a block unfreed: its finalizer
// unmaps it within a few collections.
func TestFinalizerFreesDroppedBlock(t *testing.T) {
	Settle()
	before := Bytes()
	func() { New(1 << 16).Floats()[0] = 1 }()
	for range 4 {
		Settle()
		if Bytes() == before {
			return
		}
	}
	t.Fatalf("Bytes() = %d four collections after dropping a block, want %d", Bytes(), before)
}
