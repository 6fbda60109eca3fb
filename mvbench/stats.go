package main

import (
	"math"
	"sort"
	"time"
)

// sample is a set of observations with nearest-rank percentiles.
type sample []float64

// pct returns the nearest-rank q-th percentile (0 < q <= 100), or 0 for
// an empty sample.
func (s sample) pct(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(sample(nil), s...)
	sort.Float64s(c)
	rank := int(math.Ceil(q / 100 * float64(len(c))))
	if rank < 1 {
		rank = 1
	}
	return c[rank-1]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
