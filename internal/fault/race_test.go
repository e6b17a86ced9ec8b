//go:build race

package fault

// forkSample: under the race detector TestForkPointsMatchReference holds
// every eighth experiment to the reference, and every one forked past the
// last rung; its from-reset reference runs are single-goroutine loops that
// show the detector little and run several times slower.
const forkSample = 8
