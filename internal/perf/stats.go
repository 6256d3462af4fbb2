package perf

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a percentile with fewer is noise, so it is dropped.
const minBeyond = 10

// Percentile returns the p-th percentile of xs (p in (0,100)) by linear
// interpolation between closest ranks, and whether it may be reported:
// at least minBeyond samples must lie above it. The median is always
// reportable for a non-empty sample.
func Percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	v := s[lo]
	if lo+1 < len(s) {
		v += (rank - float64(lo)) * (s[lo+1] - s[lo])
	}
	beyond := len(s) - int(math.Ceil(p/100*float64(len(s))))
	return v, p <= 50 || beyond >= minBeyond
}

// Quartiles returns the first quartile, median and third quartile of xs
// with the same method as Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), so the numbers agree with a script that
// checks a set of runs; one sample yields that sample three times.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(k int) float64 {
		// Python's integer arithmetic: rank k·(n+1)/4, its integer part
		// clamped to [1, n-1]; small samples extrapolate as Python does.
		m := len(s) + 1
		j := min(max(k*m/4, 1), len(s)-1)
		delta := k*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
