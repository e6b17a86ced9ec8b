//go:build race

package main

// crashIters: under the race detector the engine runs several times slower,
// so a fifth of the plain build's iterations still outlasts three kill
// cycles.
const crashIters = 20
