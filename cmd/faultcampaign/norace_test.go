//go:build !race

package main

// crashIters is cmd/faultserverd's crash campaign size without the race
// detector.
const crashIters = 100
