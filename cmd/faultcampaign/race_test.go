//go:build race

package main

// crashIters is cmd/faultserverd's crash campaign size under the race
// detector.
const crashIters = 20
