package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of vs (p in (0,100]): the
// smallest value with at least p % of the samples at or below it. It is
// always one of the samples, so it never invents a latency nobody saw.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median averages the two middle samples when the count is even.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quartiles follows Python's statistics.quantiles(vs, n=4), the rule the
// acceptance check for this benchmark applies (the exclusive method): cut
// k sits at position (len+1)·k/4, interpolated between its neighbours. It
// needs at least two samples.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sorted(vs)
	at := func(k int) float64 {
		j := k * (len(s) + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := k*(len(s)+1) - 4*j // taken after clamping, so the ends extrapolate as Python's do
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// iqrShare is the interquartile range as a share of the median: the spread
// measure every bound in BENCHMARK.json is set against.
func iqrShare(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// share is num/den, 0 when nothing was counted.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
