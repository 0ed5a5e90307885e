package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is the number of samples the reported tail percentile must
// leave above it.
const tailBeyond = 10

// tail returns the highest whole percentile of xs that has at least
// tailBeyond samples above it, with its value (nearest-rank). With too few
// samples to leave tailBeyond above any percentile it returns the maximum
// as percentile 100.
func tail(xs []float64) (pct int, value float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n <= tailBeyond {
		return 100, s[n-1]
	}
	pct = 100 * (n - tailBeyond) / n
	rank := int(math.Ceil(float64(pct) / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return pct, s[rank-1]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
