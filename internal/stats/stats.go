// Package stats provides the small statistical toolkit the evaluation
// needs: descriptive summaries, linear regression and the logarithmic fit
// y = a*ln(x) + b with its coefficient of determination, which is the form
// of the paper's Figure 7 trend line (y = 0.0838*ln(x) - 0.0191,
// R^2 = 0.9246).
package stats

import (
	"errors"
	"math"
)

// ErrBadInput reports degenerate regression inputs.
var ErrBadInput = errors.New("stats: need at least two points with nonzero variance")

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// LinFit fits y = a*x + b by least squares and returns the coefficient of
// determination R^2.
func LinFit(xs, ys []float64) (a, b, r2 float64, err error) {
	n := len(xs)
	if n < 2 || n != len(ys) {
		return 0, 0, 0, ErrBadInput
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, 0, 0, ErrBadInput
	}
	a = sxy / sxx
	b = my - a*mx
	var ssRes, ssTot float64
	for i := 0; i < n; i++ {
		e := ys[i] - (a*xs[i] + b)
		ssRes += e * e
		d := ys[i] - my
		ssTot += d * d
	}
	if ssTot == 0 {
		r2 = 1
	} else {
		r2 = 1 - ssRes/ssTot
	}
	return a, b, r2, nil
}

// LogFit fits y = a*ln(x) + b by least squares on (ln x, y). All xs must
// be positive.
func LogFit(xs, ys []float64) (a, b, r2 float64, err error) {
	lx := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return 0, 0, 0, ErrBadInput
		}
		lx[i] = math.Log(x)
	}
	return LinFit(lx, ys)
}

// EvalLog evaluates y = a*ln(x) + b.
func EvalLog(a, b, x float64) float64 { return a*math.Log(x) + b }

// Z95 is the normal z-value of a 95% two-sided confidence interval, the
// level every reported Pf interval uses.
const Z95 = 1.96

// WilsonCI returns the Wilson score confidence interval for a binomial
// proportion: the range of true failure probabilities compatible with
// observing `successes` failures in `trials` experiments at confidence
// level z (1.96 for 95%). Unlike the normal approximation it stays inside
// [0,1] and behaves sensibly at p near 0 or 1 and for small n, which is
// exactly the regime of a streaming campaign's first few experiments.
//
// With no trials the interval is the vacuous [0,1]; z <= 0 collapses to
// the point estimate. Out-of-range successes are clamped into
// [0, trials]: callers fold counts reported by remote workers, and a
// corrupted tally (negative, or exceeding its trial count) must yield a
// defensible interval instead of NaN or out-of-range bounds — this
// function feeds the adaptive stopping rule, where a NaN half-width
// would silently disable (or a negative one instantly satisfy) the
// convergence test.
func WilsonCI(successes, trials int, z float64) (lo, hi float64) {
	if trials <= 0 {
		return 0, 1
	}
	if successes < 0 {
		successes = 0
	}
	if successes > trials {
		successes = trials
	}
	n := float64(trials)
	p := float64(successes) / n
	if z <= 0 {
		return p, p
	}
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// HalfWidth returns half the width of the Wilson score interval around
// the observed proportion: the sequential-stopping statistic of adaptive
// campaigns. A campaign that stops once HalfWidth drops below a requested
// epsilon guarantees its final Pf estimate is within ±epsilon of any true
// failure probability the sample remains compatible with. With no trials
// the vacuous interval [0,1] gives 0.5.
func HalfWidth(successes, trials int, z float64) float64 {
	lo, hi := WilsonCI(successes, trials, z)
	return (hi - lo) / 2
}

// Pearson returns the Pearson correlation coefficient.
func Pearson(xs, ys []float64) (float64, error) {
	n := len(xs)
	if n < 2 || n != len(ys) {
		return 0, ErrBadInput
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, ErrBadInput
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
