package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile before
// it is reported: with fewer, the value is one or two outliers, not a
// percentile.
const minBeyond = 10

// samples is one timed quantity's observations, in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value (mean of the two middle values for an even
// count), or 0 for no samples. It is the central value, not a tail, so
// it needs no samples beyond it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100): the
// smallest sample with at least p% of the samples at or below it. It is
// an error when fewer than minBeyond samples lie beyond that rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// tailPercentiles are the tail percentiles tail tries, highest first.
var tailPercentiles = []float64{99, 95, 90, 75}

// tail returns the highest of tailPercentiles that has minBeyond samples
// beyond it, with its value.
func tail(xs []float64) (p, v float64, err error) {
	for _, p := range tailPercentiles {
		if v, err := percentile(xs, p); err == nil {
			return p, v, nil
		}
	}
	return 0, 0, fmt.Errorf("%d samples: too few for any tail percentile", len(xs))
}

// frac is num/den, or 0 when den is 0 (a layer the workload bypasses).
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
