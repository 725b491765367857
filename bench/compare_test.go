package main

import "testing"

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "feed_lag_iqm_ms", Unit: "ms", Bound: 0.15}
	higher := metricDef{Name: "ingest_alerts_per_s", Unit: "1/s", Higher: true, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, by float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * by
		}
		return out
	}
	noisy := []float64{100, 140, 70, 120, 85, 130, 75, 110, 95, 150}
	for _, c := range []struct {
		name           string
		def            metricDef
		parent, change []float64
		want           verdict
	}{
		{"unchanged", lower, steady, steady, verdictSame},
		{"worse inside the bound", lower, steady, scale(steady, 1.10), verdictSame},
		{"worse beyond the bound", lower, steady, scale(steady, 1.20), verdictRegressed},
		{"better by more than the parent's spread, every pair", lower, steady, scale(steady, 0.90), verdictImproved},
		{"better by less than the parent's spread", lower, steady, scale(steady, 0.995), verdictSame},
		{"higher is better: a drop beyond the bound", higher, steady, scale(steady, 0.85), verdictRegressed},
		{"higher is better: a rise", higher, steady, scale(steady, 1.2), verdictImproved},
		{"spread wider than the bound", lower, noisy, scale(noisy, 1.05), verdictUnresolved},
		{"spread wider than the bound but every run better", lower, noisy, scale(steady, 0.5), verdictImproved},
		{"spread wider than the bound and every run worse", lower, noisy, scale(steady, 2), verdictRegressed},
		{"one side missing", lower, steady, nil, verdictUnresolved},
	} {
		if got := judge(c.def, c.parent, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// A gain needs nine pairs in ten, whatever the medians say.
func TestJudgeNeedsNineWinsInTen(t *testing.T) {
	def := metricDef{Name: "cpu_us_per_alert", Unit: "us", Bound: 0.10}
	parent := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100.5}
	change := []float64{95, 95, 95, 95, 95, 95, 95, 95, 101, 101}
	if got := judge(def, parent, change); got != verdictSame {
		t.Errorf("eight wins in ten: %s, want %s", got, verdictSame)
	}
	change[8] = 95
	if got := judge(def, parent, change); got != verdictImproved {
		t.Errorf("nine wins in ten: %s, want %s", got, verdictImproved)
	}
}

func TestCompareRunsPairsSides(t *testing.T) {
	mk := func(side string, lag float64) runRecord {
		return runRecord{Workload: "wide_udp", Side: side,
			Metrics: map[string]value{"feed_lag_iqm_ms": {Value: lag, Unit: "ms"}}}
	}
	var runs []runRecord
	for i := 0; i < 10; i++ {
		runs = append(runs, mk("parent", 15+0.01*float64(i)), mk("", 19+0.01*float64(i)))
	}
	if n := compareRuns(runs, runs, "parent"); n != 1 {
		t.Errorf("%d regressions, want the one feed_lag_iqm_ms row", n)
	}
	if n := compareRuns(runs, runs, ""); n != 0 {
		t.Errorf("a side compared with itself regressed %d times", n)
	}
}
