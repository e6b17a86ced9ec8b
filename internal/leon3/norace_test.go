//go:build !race

package leon3_test

// wedgedRest: the plain build's TestWedgedHoldsToHorizon sweeps every net.
const wedgedRest = 1
