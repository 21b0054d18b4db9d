package main

import (
	"math"
	"slices"
)

func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because the
// acceptance spread is defined with that function. It needs two samples.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run spread the benchmark contract bounds.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowerQuartile is the cost estimator for repeated timings of one
// deterministic piece of work. Interference from the host only ever adds
// time, so the low end of the distribution is the honest cost; the
// quartile, not the minimum, keeps one lucky pass from setting the number.
// It never goes below the fastest sample, so with two or three passes it
// is the fastest pass.
func lowerQuartile(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	q1, _, _ := quartiles(v)
	return math.Max(q1, slices.Min(v))
}

// tailLadder holds the percentiles a tail may be reported at.
var tailLadder = []int{50, 75, 90, 95, 99}

// tailPercentile returns the highest percentile of the ladder that still
// has at least ten samples beyond it, as a fraction, and its value: a tail
// quoted from fewer samples than that does not repeat.
func tailPercentile(v []float64) (value, q float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	pct := tailLadder[0]
	for _, p := range tailLadder {
		if n*(100-p) >= 10*100 {
			pct = p
		}
	}
	idx := (n*pct+99)/100 - 1 // ceil(n*pct/100) - 1
	return s[max(idx, 0)], float64(pct) / 100
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
