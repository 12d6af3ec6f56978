//go:build race

package harness

// raceEnabled reports whether the race detector is on, so the heaviest
// tests can trim their sweeps to what `make race` can afford.
const raceEnabled = true
