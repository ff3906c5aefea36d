//go:build race

package control

// raceEnabled tells byte-pinning allocation gates that the race detector
// runs, which pads some allocations.
const raceEnabled = true
