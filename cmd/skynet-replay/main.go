// Command skynet-replay pushes a recorded raw-alert trace (produced by
// skynet-gen or captured from a live skynetd) through the SkyNet pipeline
// and prints the resulting incident reports, most severe first.
//
// Usage:
//
//	skynet-replay -trace trace.jsonl.gz
//	skynet-replay -trace trace.jsonl.gz -thresholds 2/1+2/6 -severity 0
//	skynet-replay -trace trace.jsonl.gz -stats
//	skynet-replay -trace trace.jsonl.gz -spans
//	skynet-replay -trace trace.jsonl.gz -floods
//
// With -stats, the replay runs instrumented and a per-stage timing table
// plus the volume funnel (raw → structured → consolidated → incidents)
// follow the reports. With -spans, every tick is span-traced and the
// slowest tick's span tree plus per-stage span aggregates are printed.
// With -floods, the flood-episode detector rides the replay and every
// detected episode's postmortem report is printed.
// (The issue sketch called this flag -trace; that name was already taken
// by the trace-file path, so the span report lives on -spans.)
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"skynet/internal/core"
	"skynet/internal/evaluator"
	"skynet/internal/flood"
	"skynet/internal/locator"
	"skynet/internal/provenance"
	"skynet/internal/span"
	"skynet/internal/telemetry"
	"skynet/internal/topology"
	"skynet/internal/trace"
	"skynet/internal/tsdb"
)

func main() {
	var (
		tracePath  = flag.String("trace", "", "trace file to replay (required)")
		scale      = flag.String("scale", "small", "topology scale the trace was generated on")
		seed       = flag.Int64("seed", 1, "topology seed the trace was generated on")
		thresholds = flag.String("thresholds", locator.ProductionThresholds().String(),
			"incident thresholds in A/B+C/D notation")
		severity = flag.Float64("severity", evaluator.DefaultConfig().SeverityThreshold,
			"severity filter (0 shows everything)")
		showStats = flag.Bool("stats", false,
			"print per-stage timing and the volume funnel after replay")
		showSpans = flag.Bool("spans", false,
			"trace the replay and print the slowest tick's span tree plus a per-stage span latency table")
		workers = flag.Int("workers", 0,
			"pipeline worker fan-out (0 = all cores, 1 = serial; replays are identical either way)")
		provEvery = flag.Int("provenance", 0,
			"record lineage detail for 1 in N ingested alerts (1 = all, 0 disables) and print the conservation ledger")
		explainID = flag.Int("explain", -1,
			"print the provenance tree of one incident after replay (implies full-detail recording)")
		showFloods = flag.Bool("floods", false,
			"detect flood episodes during the replay and print per-episode postmortem reports")
		historyMetrics = flag.String("history", "",
			"sample telemetry history during the replay and print terminal sparklines for the comma-separated metrics (\"all\" lists every recorded series)")
	)
	flag.Parse()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "skynet-replay: -trace is required")
		flag.Usage()
		os.Exit(2)
	}

	alerts, err := trace.Read(*tracePath)
	if err != nil {
		fatal(err)
	}
	var topoCfg topology.Config
	switch *scale {
	case "small":
		topoCfg = topology.SmallConfig()
	case "production":
		topoCfg = topology.ProductionConfig()
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	topoCfg.Seed = *seed
	topo, err := topology.Generate(topoCfg)
	if err != nil {
		fatal(err)
	}

	cfg := core.DefaultConfig()
	th, err := locator.ParseThresholds(*thresholds)
	if err != nil {
		fatal(err)
	}
	cfg.Locator.Thresholds = th
	cfg.Evaluator.SeverityThreshold = *severity
	cfg.Workers = *workers

	var reg *telemetry.Registry
	var journal *telemetry.Journal
	if *showStats {
		reg = telemetry.New()
		journal = telemetry.NewJournal(0)
	}
	var db *tsdb.DB
	if *historyMetrics != "" {
		if reg == nil {
			reg = telemetry.New() // the sampler reads registry handles
		}
		db = tsdb.New(tsdb.Config{})
	}
	var tracer *span.Tracer
	if *showSpans {
		tracer = span.NewTracer(0)
	}
	var prov *provenance.Recorder
	switch {
	case *explainID >= 0:
		// Explaining one incident wants every lineage in detail.
		prov = provenance.New(provenance.Config{SampleEvery: 1})
	case *provEvery > 0:
		prov = provenance.New(provenance.Config{SampleEvery: *provEvery})
	}
	var floodRec *flood.Recorder
	if *showFloods {
		floodRec = flood.New(flood.Config{})
	}
	eng, err := trace.ReplayWithOptions(alerts, topo, cfg,
		trace.ReplayOptions{Telemetry: reg, Journal: journal, Provenance: prov, Tracer: tracer, Flood: floodRec,
			History: db})
	if err != nil {
		fatal(err)
	}

	all := eng.AllIncidents()
	stats := eng.PreprocessStats()
	fmt.Printf("replayed %d raw alerts → %d structured → %d incidents\n",
		stats.In, stats.Out, len(all))
	shown := 0
	for _, in := range evaluator.Rank(all) {
		if in.Severity < *severity {
			continue
		}
		shown++
		fmt.Println(in.Render())
	}
	if shown == 0 {
		fmt.Printf("no incidents at or above severity %.1f (rerun with -severity 0 to see all)\n", *severity)
	}
	if *showStats {
		printStats(eng, reg, journal)
	}
	if tracer != nil {
		printSpans(tracer)
	}
	if prov != nil {
		printConservation(prov)
	}
	if floodRec != nil {
		printFloods(floodRec)
	}
	if db != nil {
		printHistory(db, *historyMetrics)
	}
	if *explainID >= 0 {
		explain(eng, prov, *explainID)
	}
}

// printHistory renders the -history report: a terminal sparkline per
// requested metric from the replay's tick-indexed store. "all" lists
// every recorded series instead.
func printHistory(db *tsdb.DB, metrics string) {
	fmt.Printf("\n== telemetry history (%d series, %d samples, %s resident) ==\n",
		len(db.SeriesNames()), db.Samples(), formatBytes(db.MemoryBytes()))
	if metrics == "all" {
		for _, name := range db.SeriesNames() {
			fmt.Printf("  %s\n", name)
		}
		return
	}
	for _, metric := range strings.Split(metrics, ",") {
		metric = strings.TrimSpace(metric)
		if metric == "" {
			continue
		}
		res, err := db.Query(metric, 0, 0, 1)
		if err != nil {
			fmt.Printf("%s: %v (try -history all for the recorded series)\n", metric, err)
			continue
		}
		fmt.Print(tsdb.RenderHistory(res, 72))
	}
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// printFloods renders the -floods report: the episode table, then each
// episode's full postmortem.
func printFloods(rec *flood.Recorder) {
	eps := rec.Episodes()
	fmt.Println("\n== flood episodes ==")
	if len(eps) == 0 {
		fmt.Println("  no flood episodes detected")
		return
	}
	fmt.Print(flood.RenderTable(eps))
	for i := range eps {
		fmt.Print(eps[i].Render())
	}
}

// printConservation renders the lineage ledger: every ingested alert must
// be in exactly one terminal bucket once the replay has quiesced.
func printConservation(prov *provenance.Recorder) {
	c := prov.Counters()
	fmt.Println("\n== lineage conservation (ingested == consolidated + filtered + expired + attributed) ==")
	fmt.Printf("  ingested      %8d  (%d link-split mirrors)\n", c.Ingested, c.Split)
	fmt.Printf("  consolidated  %8d\n", c.Consolidated)
	fmt.Printf("  filtered      %8d  (", c.Filtered)
	for r := provenance.FilterUnclassified; ; r++ {
		fmt.Printf("%d %s", c.ByReason[r], r)
		if r == provenance.FilterStale {
			break
		}
		fmt.Print(", ")
	}
	fmt.Println(")")
	fmt.Printf("  expired       %8d\n", c.Expired)
	fmt.Printf("  attributed    %8d\n", c.Attributed)
	if inflight := c.Ingested - c.Terminal(); inflight != 0 {
		fmt.Printf("  IN FLIGHT     %8d  — conservation violated at quiescence!\n", inflight)
	} else {
		fmt.Println("  conserved: every lineage accounted for exactly once")
	}
}

// explain prints the human-readable provenance tree of one incident.
func explain(eng *core.Engine, prov *provenance.Recorder, id int) {
	for _, in := range eng.AllIncidents() {
		if in.ID == id {
			fmt.Printf("\n%s", prov.Explain(in).Render())
			return
		}
	}
	fmt.Fprintf(os.Stderr, "skynet-replay: -explain %d: no such incident\n", id)
	os.Exit(1)
}

// printStats renders the -stats report: the volume funnel of Fig. 5a and
// the per-stage tick timings accumulated by the telemetry registry.
func printStats(eng *core.Engine, reg *telemetry.Registry, journal *telemetry.Journal) {
	st := eng.PreprocessStats()
	active := eng.ActiveCount()
	closed := eng.ClosedCount()
	structured := st.In - st.DroppedUnclassified

	fmt.Println("\n== funnel: raw → structured → consolidated → incidents ==")
	fmt.Printf("  raw alerts          %d\n", st.In)
	fmt.Printf("  structured          %d  (%d syslog lines unclassified)\n", structured, st.DroppedUnclassified)
	fmt.Printf("  consolidated        %d  (%s reduction: %d deduplicated, %d sporadic, %d related, %d uncorroborated)\n",
		st.Out, reduction(st.In, st.Out), st.Deduplicated, st.DroppedSporadic, st.DroppedRelated, st.DroppedUncorroborated)
	fmt.Printf("  incidents           %d  (%d active, %d closed)\n", active+closed, active, closed)
	if journal != nil {
		fmt.Printf("  lifecycle events    %d\n", len(journal.Events()))
	}

	snaps := map[string]telemetry.MetricSnapshot{}
	for _, m := range reg.Snapshot() {
		snaps[m.Name] = m
	}
	fmt.Println("\n== per-stage timing (per tick) ==")
	fmt.Printf("  %-12s %8s %10s %10s %10s %12s\n", "stage", "ticks", "mean", "p50", "p90", "total")
	for _, row := range []struct{ label, metric string }{
		{"preprocess", "skynet_stage_preprocess_seconds"},
		{"locate", "skynet_stage_locate_seconds"},
		{"evaluate", "skynet_stage_evaluate_seconds"},
		{"sop", "skynet_stage_sop_seconds"},
		{"full tick", "skynet_tick_seconds"},
	} {
		h := snaps[row.metric].Hist
		if h == nil {
			continue
		}
		fmt.Printf("  %-12s %8d %10s %10s %10s %12s\n", row.label, h.Count,
			fmtSeconds(h.Mean()), fmtSeconds(h.Quantile(0.5)), fmtSeconds(h.Quantile(0.9)), fmtSeconds(h.Sum))
	}
	if v, ok := snaps["skynet_replay_alerts_per_second"]; ok && v.Value > 0 {
		fmt.Printf("\nreplay throughput: %s alerts/s (%s wall)\n",
			fmtCount(v.Value), fmtSeconds(snaps["skynet_replay_seconds"].Value))
	}
}

// printSpans renders the -spans report: the span tree of the slowest tick
// and the per-stage span latency aggregates over the whole replay.
func printSpans(tracer *span.Tracer) {
	fmt.Printf("\n== slowest tick (of %d traced) ==\n", tracer.TickCount())
	if slow, ok := tracer.Slowest(); ok {
		fmt.Print(slow.Render())
	} else {
		fmt.Println("  no ticks traced")
	}
	fmt.Println("\n== per-stage span latency ==")
	fmt.Print(span.RenderStageStats(tracer.StageStats()))
}

func reduction(in, out int) string {
	if in == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.1f%%", 100*(1-float64(out)/float64(in)))
}

func fmtSeconds(s float64) string {
	if math.IsInf(s, 1) {
		return ">10s"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

func fmtCount(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "skynet-replay: %v\n", err)
	os.Exit(1)
}
