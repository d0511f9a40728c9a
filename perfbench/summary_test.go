package main

import (
	"strings"
	"testing"
	"time"
)

// ramp returns 1, 2, ..., n.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestMedianAndMean(t *testing.T) {
	cases := []struct {
		xs           []float64
		median, mean float64
	}{
		{nil, 0, 0},
		{[]float64{7}, 7, 7},
		{[]float64{3, 1, 2}, 2, 2},
		{[]float64{4, 1, 3, 2}, 2.5, 2.5},
		{[]float64{10, 1, 1, 1, 2}, 1, 3},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.median {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.median)
		}
		if got := mean(c.xs); got != c.mean {
			t.Errorf("mean(%v) = %v, want %v", c.xs, got, c.mean)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	// 1..1000: the p99 rank is 990, leaving exactly 10 samples beyond.
	got, err := percentile(ramp(1000), 99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	// Order must not matter.
	xs := ramp(1000)
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
	if got, _ := percentile(xs, 99); got != 990 {
		t.Fatalf("p99 of reversed 1..1000 = %v, want 990", got)
	}
	// p50 of 1..20 is rank 10 with 10 beyond.
	if got, err := percentile(ramp(20), 50); err != nil || got != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	// 1..999: rank 990 leaves only 9 beyond.
	if _, err := percentile(ramp(999), 99); err == nil || !strings.Contains(err.Error(), "9 beyond") {
		t.Fatalf("p99 of 999 samples: err = %v, want a too-few-samples error", err)
	}
	if _, err := percentile(nil, 99); err == nil {
		t.Fatal("p99 of no samples: want an error")
	}
	if _, err := percentile(ramp(100), 100); err == nil {
		t.Fatal("p100: want an error")
	}
}

func TestSamplesInMilliseconds(t *testing.T) {
	var s samples
	s.add(1500 * time.Microsecond)
	s.add(2 * time.Second)
	if s[0] != 1.5 || s[1] != 2000 {
		t.Fatalf("samples = %v, want [1.5 2000]", s)
	}
	if frac(1, 0) != 0 || frac(1, 4) != 0.25 {
		t.Fatal("frac: want 0 for a zero denominator and 0.25 for 1/4")
	}
}

func TestTail(t *testing.T) {
	cases := []struct {
		n    int
		p, v float64
	}{
		{1000, 99, 990}, // 10 beyond p99
		{999, 95, 950},  // p99 has 9 beyond; p95 (rank 950) has 49
		{100, 90, 90},   // p95 has 5 beyond; p90 has 10
		{40, 75, 30},    // p90 has 4 beyond; p75 has 10
	}
	for _, c := range cases {
		p, v, err := tail(ramp(c.n))
		if err != nil || p != c.p || v != c.v {
			t.Errorf("tail of 1..%d = p%g %v, %v; want p%g %v", c.n, p, v, err, c.p, c.v)
		}
	}
	if _, _, err := tail(ramp(39)); err == nil {
		t.Error("tail of 39 samples: want an error")
	}
}
