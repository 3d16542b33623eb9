//go:build !amd64

package hamming

import "testing"

// runPortable adds nothing: without a vector kernel the default
// sub-benchmark already runs the portable sieve.
func runPortable(*testing.B, func(*testing.B)) {}
