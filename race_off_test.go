//go:build !race

package netupdate_test

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
