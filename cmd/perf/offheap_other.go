//go:build !unix

package main

// offHeapUint32s has no anonymous mapping to use here; the table lives in
// the Go heap and adds its 16 MB to the collector's pacing.
func offHeapUint32s(n int) []uint32 { return make([]uint32, n) }
