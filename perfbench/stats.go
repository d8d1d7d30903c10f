package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile, so
// that the figure rests on more than a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses when fewer than minBeyond samples lie beyond it: a p99 needs at
// least 1000 samples and a median 20.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", p*100, minBeyond, n)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count), or 0 for no samples. Unlike percentile it accepts
// any sample count; the in-process passes use it on fixed-size streams.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones the bounds are judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
