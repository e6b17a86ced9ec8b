//go:build !race

package fault

// forkSample: the plain build's TestForkPointsMatchReference holds every
// experiment to the reference.
const forkSample = 1
