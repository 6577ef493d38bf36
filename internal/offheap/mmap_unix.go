//go:build unix && !race

package offheap

import (
	"syscall"
	"unsafe"
)

// pageRound rounds a mapping's length up to whole pages.
func pageRound(size int) int64 {
	page := syscall.Getpagesize()
	return int64((size + page - 1) / page * page)
}

// mapFloats maps n zeroed float64s, page-aligned. It returns nil slices
// when n is not positive or the system refuses the mapping.
func mapFloats(n int) ([]float64, []byte) {
	if n <= 0 {
		return nil, nil
	}
	mem, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), n), mem
}

func unmapBytes(mem []byte) { _ = syscall.Munmap(mem) } // fails only on a bad mapping, which New never hands out
