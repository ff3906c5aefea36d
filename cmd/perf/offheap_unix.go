//go:build unix

package main

import (
	"syscall"
	"unsafe"
)

// offHeapUint32s maps n zeroed uint32s outside the Go heap, so the
// calibration table neither counts towards the collector's pacing of the
// process under test nor is scanned by it. Where the mapping fails it falls
// back to the heap.
func offHeapUint32s(n int) []uint32 {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint32, n)
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}
