//go:build !unix || race

package offheap

func pageRound(int) int64 { return 0 }

// mapFloats maps nothing: every block lives on the heap.
func mapFloats(int) ([]float64, []byte) { return nil, nil }

func unmapBytes([]byte) {}
