//go:build !race

package main

// crashIters: fewer iterations make each shard so short that the whole
// campaign is journaled within a few of the kill points' lingers.
const crashIters = 100
