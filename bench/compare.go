package main

// Repeats and comparisons by the choosing-metrics rules: per-side median
// and quartiles, the fixed bounds, "unresolved" when the spread is wider
// than the bound, a gain only when nine pairs in ten agree.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// verdict is what a comparison says about one metric on one workload.
type verdict string

const (
	verdictSame       verdict = "within bound"
	verdictRegressed  verdict = "REGRESSED"
	verdictImproved   verdict = "improved"
	verdictUnresolved verdict = "unresolved"
)

// minPairs is how many pairs a gain must rest on.
const minPairs = 10

// judge compares a change's runs of one metric with its parent's. Runs
// are paired in order: run i of one side ran next to run i of the other.
func judge(def metricDef, parent, change []float64) verdict {
	p, c := summarise(parent), summarise(change)
	if p.N == 0 || c.N == 0 {
		return verdictUnresolved
	}
	better := func(a, b float64) bool { // a better than b
		if def.Higher {
			return a > b
		}
		return a < b
	}
	worseBy := (c.Median - p.Median) / p.Median
	if def.Higher {
		worseBy = -worseBy
	}
	// Every run of one side beating every run of the other settles the
	// direction whatever the spread.
	allBetter := better(worst(change, def.Higher), best(parent, def.Higher))
	allWorse := better(worst(parent, def.Higher), best(change, def.Higher))
	if max(p.iqrShare(), c.iqrShare()) > def.Bound && !allBetter && !allWorse {
		return verdictUnresolved
	}
	if worseBy > def.Bound {
		return verdictRegressed
	}
	wins, pairs := 0, min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if better(c.Median, p.Median) && pairs >= minPairs && wins*10 >= pairs*9 && math.Abs(p.Median-c.Median) > p.Q3-p.Q1 {
		return verdictImproved
	}
	return verdictSame
}

func best(v []float64, higher bool) float64 {
	if higher {
		return slices.Max(v)
	}
	return slices.Min(v)
}

func worst(v []float64, higher bool) float64 { return best(v, !higher) }

// valuesOf lists one metric over one side's runs of a workload, in run
// order.
func valuesOf(runs []runRecord, workload, side string, pick func(*runRecord) (float64, bool)) []float64 {
	var out []float64
	for i := range runs {
		if runs[i].Workload != workload || runs[i].Side != side {
			continue
		}
		if v, ok := pick(&runs[i]); ok {
			out = append(out, v)
		}
	}
	return out
}

func metricPick(name string) func(*runRecord) (float64, bool) {
	return func(r *runRecord) (float64, bool) {
		v, ok := r.Metrics[name]
		return v.Value, ok
	}
}

// failureShares may not rise at all: they have no bound to stay within.
var failureShares = []struct {
	name string
	pick func(*runRecord) (float64, bool)
}{
	{"shed_share", func(r *runRecord) (float64, bool) { return r.ShedShare, true }},
	{"probe_miss_share", func(r *runRecord) (float64, bool) { return r.ProbeMissShare, true }},
}

// printSpreads reports, per workload and end-to-end metric, the median
// and quartiles over the runs and the spread as a share of the bound.
func printSpreads(runs []runRecord) {
	for _, spec := range workloads {
		printed := false
		for _, def := range endToEnd {
			vals := valuesOf(runs, spec.name, "", metricPick(def.Name))
			if len(vals) < 2 {
				continue
			}
			if !printed {
				fmt.Printf("%s over %d runs:\n", spec.name, len(vals))
				printed = true
			}
			s := summarise(vals)
			note := ""
			if s.iqrShare() > def.Bound {
				note = "  spread exceeds the bound: comparisons will be unresolved"
			}
			fmt.Printf("  %-22s median %12.4f %-3s q1 %12.4f q3 %12.4f  spread %.4f of median (bound %.2f)%s\n",
				def.Name, s.Median, def.Unit, s.Q1, s.Q3, s.iqrShare(), def.Bound, note)
		}
	}
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareRuns prints one row per workload and metric and returns how
// many regressed.
func compareRuns(parent, change []runRecord, parentSide string) int {
	regressed := 0
	for _, spec := range workloads {
		for _, def := range endToEnd {
			p := valuesOf(parent, spec.name, parentSide, metricPick(def.Name))
			c := valuesOf(change, spec.name, "", metricPick(def.Name))
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			ps, cs := summarise(p), summarise(c)
			v := judge(def, p, c)
			if v == verdictRegressed {
				regressed++
			}
			fmt.Printf("%-10s %-20s parent %11.4f [%11.4f %11.4f] n=%-2d change %11.4f [%11.4f %11.4f] n=%-2d %+7.2f%% bound %2.0f%%  %s\n",
				spec.name, def.Name, ps.Median, ps.Q1, ps.Q3, ps.N, cs.Median, cs.Q1, cs.Q3, cs.N,
				100*(cs.Median-ps.Median)/ps.Median, 100*def.Bound, v)
		}
		for _, fs := range failureShares {
			p := valuesOf(parent, spec.name, parentSide, fs.pick)
			c := valuesOf(change, spec.name, "", fs.pick)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := verdictSame
			if median(c) > median(p) {
				v = verdictRegressed
				regressed++
			}
			fmt.Printf("%-10s %-20s parent %11.6f change %11.6f  may not rise  %s\n", spec.name, fs.name, median(p), median(c), v)
		}
	}
	return regressed
}

// compareMain implements "bench compare PARENT.json CHANGE.json", or with
// one file, its runs marked parent against its others (a -parent run).
func compareMain(args []string) int {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare PARENT.json CHANGE.json | bench compare PAIRED.json")
		return 2
	}
	parent, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	change, side := parent, "parent"
	if len(args) == 2 {
		side = ""
		if change, err = readResults(args[1]); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	if compareRuns(parent.Runs, change.Runs, side) > 0 {
		return 1
	}
	return 0
}

// layerMedians is the median over a workload's traced runs of every
// per-layer metric and of the end-to-end ones the budget sums against;
// both from the same runs, so the parts add up to the whole.
func layerMedians(runs []runRecord, workload string) map[string]float64 {
	vals := map[string][]float64{}
	for i := range runs {
		if runs[i].Workload != workload || len(runs[i].Layers) == 0 {
			continue
		}
		for name, v := range runs[i].Layers {
			vals[name] = append(vals[name], v.Value)
		}
		for name, v := range runs[i].Metrics {
			vals[name] = append(vals[name], v.Value)
		}
		vals["feed_lag_p50_ms"] = append(vals["feed_lag_p50_ms"], runs[i].FeedLagP50Ms)
	}
	out := map[string]float64{}
	for name, v := range vals {
		out[name] = median(v)
	}
	return out
}

// budgetMain prints, for each workload of a results file, the per-layer
// parts summed against cpu_us_per_alert and the median feed lag, with the
// unexplained gaps as rows of their own.
func budgetMain(path string) int {
	f, err := readResults(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -budget:", err)
		return 2
	}
	for _, spec := range workloads {
		m := layerMedians(f.Runs, spec.name)
		if _, traced := m["gap.tick_us"]; !traced {
			continue
		}
		decode := "alert.json_decode_ns_per_alert"
		if spec.udp {
			decode = "alert.wire_decode_ns_per_alert"
		}
		fmt.Printf("### %s\n\n| part of `cpu_us_per_alert` | µs/alert | share |\n|---|---:|---:|\n", spec.name)
		whole := m["cpu_us_per_alert"]
		sum := 0.0
		row := func(label string, us float64) {
			fmt.Printf("| %s | %.3f | %.0f %% |\n", label, us, 100*us/whole)
		}
		for _, part := range []struct {
			label string
			us    float64
		}{
			{"`" + decode + "`", m[decode] / 1e3},
			{"`ingest.self_ns_per_alert`", m["ingest.self_ns_per_alert"] / 1e3},
			{"`core.ingest_batch_ns_per_alert`", m["core.ingest_batch_ns_per_alert"] / 1e3},
			{"`core.tick_wired_ns_per_alert`", m["core.tick_wired_ns_per_alert"] / 1e3},
			{"`fanout.ns_per_alert`", m["fanout.ns_per_alert"] / 1e3},
		} {
			row(part.label, part.us)
			sum += part.us
		}
		row("sum of layers", sum)
		row("`gap.cpu_us_per_alert`", m["gap.cpu_us_per_alert"])
		row("**`cpu_us_per_alert`** (daemon, whole)", whole)

		fmt.Printf("\n| part of the median feed lag | ms | share |\n|---|---:|---:|\n")
		whole = m["feed_lag_p50_ms"]
		row = func(label string, ms float64) {
			fmt.Printf("| %s | %.3f | %.0f %% |\n", label, ms, 100*ms/whole)
		}
		row("`core.tick_wired_us_p50`", m["core.tick_wired_us_p50"]/1e3)
		row("`gap.tick_us` (lock wait + unexplained)", m["gap.tick_us"]/1e3)
		row("= `core.fire_to_pub_ms_p50`", m["core.fire_to_pub_ms_p50"])
		row("`status.pub_to_client_ms_p50`", m["status.pub_to_client_ms_p50"])
		row("**median feed lag** (client, whole)", whole)
		fmt.Println()
	}
	return 0
}
