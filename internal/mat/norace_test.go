//go:build !race

package mat_test

const raceEnabled = false
