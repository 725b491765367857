package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the code's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the code has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code, or their reasons differ", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	match := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the code has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			def := want[i]
			better := "lower"
			if def.Higher {
				better = "higher"
			}
			if m.Name != def.Name || m.Unit != def.Unit || m.Better != better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %s %s %s in the code", kind, i, m, def.Name, def.Unit, better)
			}
			if bounded != (m.Bound != nil) || bounded && *m.Bound != def.Bound {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", kind, def.Name, def.Bound)
			}
			if def.Why == "" {
				t.Errorf("%s %s has no reason to exist", kind, def.Name)
			}
		}
	}
	match("end_to_end", doc.EndToEnd, endToEnd, true)
	match("per_layer", doc.PerLayer, perLayer, false)
	if findMetric(endToEnd, "setup_s") == nil {
		t.Error("setup_s must be an end-to-end metric")
	}
}

// The README is where a reader meets the names; none may be missing.
func TestReadmeNamesEveryMetricAndWorkload(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range defs {
			names = append(names, def.Name)
		}
	}
	names = append(names, "shed_share", "probe_miss_share", "gen_late_p50_ms", "gen_late_p99_ms")
	for _, name := range names {
		if !strings.Contains(readme, "`"+name+"`") {
			t.Errorf("README.md does not name `%s`", name)
		}
	}
}
