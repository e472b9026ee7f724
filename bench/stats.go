package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// values: the smallest sample with at least q of the samples at or
// below it. Nearest rank never interpolates, so the result is always a
// latency that some request actually had. Empty input yields 0.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the usual even/odd median. Empty input yields 0.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), because the acceptance rule for this
// benchmark is stated in those terms. Fewer than two values have no
// spread: all three cut points collapse onto the single value.
func quartiles(values []float64) (q1, q2, q3 float64) {
	if len(values) == 0 {
		return 0, 0, 0
	}
	if len(values) == 1 {
		return values[0], values[0], values[0]
	}
	s := sortedCopy(values)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the interquartile distance as a share of the median:
// the run-to-run noise measure every bound in this benchmark is
// compared against.
func spreadShare(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
