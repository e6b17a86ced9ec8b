//go:build race

package leon3_test

// wedgedRest: under the race detector TestWedgedHoldsToHorizon's
// single-goroutine sweep shows the detector nothing and runs several times
// slower, so of the nets no Wedged lemma names it takes a seeded sixteenth.
const wedgedRest = 16
