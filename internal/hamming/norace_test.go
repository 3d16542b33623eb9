//go:build !race

package hamming

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
