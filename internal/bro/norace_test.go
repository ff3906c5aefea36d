//go:build !race

package bro

// raceEnabled tells byte-pinning allocation gates that the race detector
// runs, which pads some allocations.
const raceEnabled = false
