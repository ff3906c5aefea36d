//go:build race

package core

// raceEnabled tells allocation gates that the race detector runs, under
// which sync.Pool drops a random share of Puts.
const raceEnabled = true
