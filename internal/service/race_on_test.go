//go:build race

package service

// raceEnabled reports that the race detector is on: it adds allocations
// of its own, so allocation pins skip.
const raceEnabled = true
