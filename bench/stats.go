package main

// One estimator for everything: percentiles of a run's samples by linear
// interpolation between closest ranks, and across runs the median and
// the quartiles as Python's statistics.quantiles(values, n=4) gives
// them, which is what the driver judges the benchmark's spread with.

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// quantile of an ascending sample, q in [0,1]; NaN for an empty sample.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// interquartileMean of an ascending sample: the mean of what is left
// after dropping the lowest and the highest quarter (each rounded down).
// Where a distribution has two modes of about equal weight the median
// lands in the gap between them and jumps from one to the other between
// runs; this moves smoothly with the share of samples in each.
func interquartileMean(asc []float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	mid := asc[len(asc)/4 : len(asc)-len(asc)/4]
	sum := 0.0
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}

// percentileLadder is what pickPercentile chooses from, in tenths of a
// percent so the sample arithmetic stays exact.
var percentileLadder = []int{500, 750, 900, 950, 990, 999}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// pickPercentile returns the highest percentile of the ladder that has
// at least minBeyond of n samples beyond it; ok is false when not even
// the median has.
func pickPercentile(n int) (p float64, ok bool) {
	for _, cand := range percentileLadder {
		if n*(1000-cand) >= minBeyond*1000 {
			p, ok = float64(cand)/10, true
		}
	}
	return p, ok
}

// spread summarises repeated runs of one metric.
type spread struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarise(v []float64) spread {
	asc := sorted(v)
	if len(asc) == 0 {
		return spread{}
	}
	return spread{N: len(asc), Median: quantile(asc, 0.5), Q1: quartile(asc, 1), Q3: quartile(asc, 3),
		Min: asc[0], Max: asc[len(asc)-1]}
}

// quartile i (1 or 3) of an ascending sample by the exclusive method:
// the cut sits at rank i(n+1)/4, interpolated, clamped into the sample.
func quartile(asc []float64, i int) float64 {
	n := len(asc)
	if n == 1 {
		return asc[0]
	}
	j := min(max(i*(n+1)/4, 1), n-1)
	delta := float64(i*(n+1) - j*4)
	return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
}

// iqrShare is the distance between the quartiles as a share of the
// median: the run-to-run spread every bound is judged against.
func (s spread) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
