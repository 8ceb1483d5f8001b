package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the three cut points statistics.quantiles(values, n=4)
// gives in Python's default "exclusive" method, so the spreads this
// benchmark records are computed exactly as its acceptance rule computes
// them. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle value (mean of the two middle values for even n).
func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// percentile returns the p-th percentile (0 < p < 100) of values by linear
// interpolation between closest ranks.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	pos := p / 100 * float64(len(d)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return d[lo] + (d[hi]-d[lo])*(pos-float64(lo))
}

// beyond counts the values strictly greater than x — the sample count a
// tail percentile rests on.
func beyond(values []float64, x float64) int {
	n := 0
	for _, v := range values {
		if v > x {
			n++
		}
	}
	return n
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func maxOf(values []float64) float64 {
	m := math.Inf(-1)
	for _, v := range values {
		m = math.Max(m, v)
	}
	return m
}
