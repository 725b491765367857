package main

import (
	"math"
	"testing"
)

func TestPickPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // 9.5 samples beyond the median
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{80, 75, true}, // p90 would leave 8 beyond
		{100, 90, true},
		{129, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := pickPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("pickPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	asc := []float64{10, 20, 30, 40}
	for q, want := range map[float64]float64{0: 10, 0.5: 25, 1: 40, 0.9: 37} {
		if got := quantile(asc, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

// A sample with two modes of about equal weight: the median flips between
// them when one sample changes sides, the interquartile mean barely moves.
func TestInterquartileMeanIsSteadyBetweenTwoModes(t *testing.T) {
	low := []float64{6, 6, 6, 6, 6, 10, 10, 10, 10}
	high := []float64{6, 6, 6, 6, 10, 10, 10, 10, 10}
	if quantile(low, 0.5) != 6 || quantile(high, 0.5) != 10 {
		t.Fatal("the two samples should have their medians in different modes")
	}
	// 9 samples: the lowest and highest 2 are dropped, 5 are left.
	if got, want := interquartileMean(low), (3*6.0+2*10)/5; got != want {
		t.Errorf("interquartileMean(low) = %v, want %v", got, want)
	}
	if got, want := interquartileMean(high), (2*6.0+3*10)/5; got != want {
		t.Errorf("interquartileMean(high) = %v, want %v", got, want)
	}
	if got := interquartileMean([]float64{7}); got != 7 {
		t.Errorf("interquartileMean of one sample = %v, want 7", got)
	}
	if !math.IsNaN(interquartileMean(nil)) {
		t.Error("interquartileMean of nothing should be NaN")
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, because that is what the benchmark's spread is judged with.
func TestSummariseMatchesPythonQuartiles(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{1, 2, 4}, 1, 4},
	} {
		s := summarise(c.v)
		if s.Q1 != c.q1 || s.Q3 != c.q3 {
			t.Errorf("summarise(%v) quartiles = %v, %v; want %v, %v", c.v, s.Q1, s.Q3, c.q1, c.q3)
		}
	}
	s := summarise([]float64{100, 110, 90, 105, 95})
	if s.Median != 100 || math.Abs(s.iqrShare()-0.15) > 1e-9 {
		t.Errorf("median %v spread %v, want 100 and 0.15", s.Median, s.iqrShare())
	}
}
