//go:build race

package mat_test

// raceEnabled reports whether the race detector is active; the census
// release is skipped under it, where it would run for minutes.
const raceEnabled = true
