package campaign

import "repro/internal/stats"

// Tally is the unit of campaign progress accounting shared by the shard
// layer and the job service: how many experiments have completed and how
// many of them propagated to a failure. Shard workers report tallies,
// coordinators fold them, and the folded tally drives both the streamed
// progressive Pf estimate and the adaptive early-stopping decision.
//
// Folding is exact, order-independent and loss-free: a campaign's merged
// tally is identical no matter how its experiment set was partitioned
// into shards, which is what keeps sharded and unsharded campaigns
// statistically — and, with early stopping off, bit-for-bit — equivalent.
type Tally struct {
	Done     int `json:"done"`
	Failures int `json:"failures"`
}

// Add folds another tally into t.
func (t *Tally) Add(u Tally) {
	t.Done += u.Done
	t.Failures += u.Failures
}

// Pf returns the progressive failure-probability estimate over the
// completed experiments (0 while nothing has completed).
func (t Tally) Pf() float64 {
	if t.Done == 0 {
		return 0
	}
	return float64(t.Failures) / float64(t.Done)
}

// Estimate returns the progressive Pf point estimate together with its
// Wilson interval at confidence level z. With no completed experiments
// the point estimate is 0 but the interval is the vacuous (0,1): that
// pair is what lets a progress-stream consumer distinguish "no data yet"
// from a genuine zero-failure estimate, whose interval tightens around 0
// as Done grows. Emit all three together — a bare Pf of 0 is ambiguous.
func (t Tally) Estimate(z float64) (pf, lo, hi float64) {
	lo, hi = t.Interval(z)
	return t.Pf(), lo, hi
}

// Interval returns the Wilson score confidence interval around the
// progressive Pf at confidence level z.
func (t Tally) Interval(z float64) (lo, hi float64) {
	return stats.WilsonCI(t.Failures, t.Done, z)
}

// HalfWidth returns half the Wilson interval width, the sequential
// statistic adaptive early stopping tests against its epsilon.
func (t Tally) HalfWidth(z float64) float64 {
	return stats.HalfWidth(t.Failures, t.Done, z)
}

// Converged reports whether the tally satisfies the adaptive stopping
// rule: at least one completed experiment and a Wilson half-width at or
// below epsilon. epsilon <= 0 disables the rule (campaigns run to
// completion), matching the job service's "off by default" contract.
func (t Tally) Converged(epsilon, z float64) bool {
	return epsilon > 0 && t.Done > 0 && t.HalfWidth(z) <= epsilon
}
