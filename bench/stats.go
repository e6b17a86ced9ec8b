package main

import (
	"math"
	"sort"
)

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for an empty sample. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailSamples is how many samples must lie beyond a reported percentile
// for it to be more than an echo of the few slowest operations.
const tailSamples = 10

// tail returns the want-quantile of xs when at least tailSamples samples
// lie beyond it, and otherwise the highest quantile that has them (never
// below the median). It also returns the quantile it used, so the caller
// can say which percentile of how many samples the number is.
func tail(xs []float64, want float64) (value, used float64) {
	used = want
	if n := len(xs); n > 0 {
		if most := 1 - tailSamples/float64(n); most < used {
			used = most
		}
	}
	if used < 0.5 {
		used = 0.5
	}
	return quantile(xs, used), used
}

// iqrShare is the distance between the first and third quartile of xs
// as a share of its median: the spread rule applied to repeated runs.
// Quartiles follow Python's statistics.quantiles(xs, n=4) (the exclusive
// method), so the number matches what the PR driver computes. It is 0
// for fewer than two samples or a zero median.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / math.Abs(m)
}
