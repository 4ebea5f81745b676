package main

import (
	"math"

	"repro/internal/stats"
)

// tailPercentiles are the candidate tail percentiles, highest first. The
// list is coarse on purpose: a run whose sample count moves a little
// between seeds keeps reporting the same percentile.
var tailPercentiles = []int{99, 90, 50}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to count as measured.
const minBeyond = 10

// summary is a latency distribution reduced to the numbers the
// benchmark reports: median, the highest percentile with at least
// minBeyond samples beyond it, and the sample count.
type summary struct {
	N      int
	Mean   float64
	P50    float64
	Tail   float64
	TailPc float64 // the percentile Tail reports
}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples beyond it, or 50 when n is too small for
// any (the tail then degenerates to the median).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n*(100-p) >= minBeyond*100 {
			return float64(p)
		}
	}
	return 50
}

// percentile returns the p-th percentile (0..100) of values by the
// repository's rule (stats.Percentile, type-7 interpolation), or NaN when
// there are none.
func percentile(values []float64, p float64) float64 {
	v, err := stats.Percentile(values, p)
	if err != nil {
		return math.NaN()
	}
	return v
}

// summarize reduces samples (any unit) to a summary.
func summarize(samples []float64) summary {
	out := summary{N: len(samples)}
	if len(samples) == 0 {
		return out
	}
	out.Mean, _ = stats.Mean(samples)
	out.P50 = percentile(samples, 50)
	out.TailPc = tailPercentile(len(samples))
	out.Tail = percentile(samples, out.TailPc)
	return out
}

// median returns the median of values (NaN when empty).
func median(values []float64) float64 { return percentile(values, 50) }

// reconcileErr is the relative residual of a decomposition: how far the
// sum of the parts lies from the whole, as a share of the whole.
func reconcileErr(whole float64, parts ...float64) float64 {
	if whole == 0 {
		return math.Inf(1)
	}
	sum := 0.0
	for _, p := range parts {
		sum += p
	}
	return math.Abs(whole-sum) / whole
}

// containErr is the relative excess of parts that must fit inside a
// whole: zero when sum(parts) <= whole, else the overflow as a share of
// the whole.
func containErr(whole float64, parts ...float64) float64 {
	if whole <= 0 {
		return math.Inf(1)
	}
	sum := 0.0
	for _, p := range parts {
		sum += p
	}
	if sum <= whole {
		return 0
	}
	return (sum - whole) / whole
}
