// Package offheap allocates large pointer-free float64 blocks outside the
// Go heap, in anonymous private mappings. The garbage collector paces
// itself to a heap goal of about twice the live heap, so a block that
// lives on the heap for a stream's lifetime costs about twice its size in
// resident memory; a mapped block costs its pages alone. The GC neither
// scans nor counts a mapping, so its owner frees it: Free unmaps at once,
// and a finalizer on the Block handle is the backstop for owners that
// drop it unfreed.
//
// Under the race detector, which ignores memory outside Go's arenas, and
// where the system offers no mmap, a block is an ordinary heap slice, as
// is any block whose mapping fails.
package offheap

import (
	"runtime"
	"sync/atomic"
)

// mapped counts the bytes, in whole pages, of every live mapped block.
var mapped atomic.Int64

// Bytes returns the bytes currently mapped by live blocks, in whole pages.
func Bytes() int64 { return mapped.Load() }

// Settle runs garbage collections until every block unreachable when it
// was called has been finalized, so that Bytes counts only blocks still
// held. It is for tests and diagnostics: owners free their blocks. The
// runtime runs finalizers one at a time on one goroutine, so once a
// sentinel queued by a later collection has run, every finalizer queued
// by an earlier one has too.
func Settle() {
	for range 2 {
		done := make(chan struct{})
		runtime.SetFinalizer(new([32]byte), func(*[32]byte) { close(done) })
		runtime.GC()
		<-done
	}
}

// Size returns the bytes New(n) maps: 8n rounded up to whole pages, or 0
// where blocks live on the heap.
func Size(n int) int64 { return pageRound(8 * n) }

// Block is one allocation of float64s. Its owner calls Free once it is
// done with the floats.
type Block struct {
	floats []float64
	mem    []byte // the mapping; nil for a heap block or once freed
}

// New returns a block of n zeroed float64s, mapped where the build maps
// blocks and the system grants the mapping, on the heap otherwise.
func New(n int) *Block {
	b := &Block{}
	if b.floats, b.mem = mapFloats(n); b.mem == nil {
		b.floats = make([]float64, n)
		return b
	}
	mapped.Add(pageRound(len(b.mem)))
	runtime.SetFinalizer(b, (*Block).unmap)
	return b
}

// Floats returns the block's values; nil once the block is freed.
func (b *Block) Floats() []float64 { return b.floats }

// Free releases the block's memory: a mapping is unmapped at once. Any
// slice of Floats taken before must not be used after. Freeing twice is
// harmless.
func (b *Block) Free() {
	if b.mem != nil {
		runtime.SetFinalizer(b, nil)
		b.unmap()
	}
	b.floats = nil
}

func (b *Block) unmap() {
	unmapBytes(b.mem)
	mapped.Add(-pageRound(len(b.mem)))
	b.floats, b.mem = nil, nil
}
