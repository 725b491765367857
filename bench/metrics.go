package main

// Every metric the benchmark reports, by name. BENCHMARK.json at the root
// of the repository lists the same names, units, directions and bounds;
// TestBenchmarkJSONMatchesCode keeps the two in step.

// metricDef names one metric. Bound is the share of the baseline median
// an end-to-end metric may worsen by before it counts as a regression;
// per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // higher is better
	Bound  float64
	Why    string
}

var endToEnd = []metricDef{
	{Name: "detect_p50_ms", Unit: "ms", Bound: 0.15,
		Why: "probe due on the wire to the client having read the first frame that names its incident: what an operator waits, tick wait included"},
	{Name: "detect_p90_ms", Unit: "ms", Bound: 0.15,
		Why: "the same at the 90th percentile, where probes that just missed a tick sit"},
	{Name: "feed_lag_iqm_ms", Unit: "ms", Bound: 0.25,
		Why: "per tick, ticker fire time to delta frame read by the client: lock wait, tick compute, delta build, encode, SSE write; the part of detect the code controls. Interquartile mean, because at saturation the median sits between two modes (ticks that waited for the engine lock and ticks that did not); the median and the 75th percentile are printed beside it, unbounded"},
	{Name: "cpu_us_per_alert", Unit: "us", Bound: 0.25,
		Why: "daemon user+system CPU from first send to end of drain per alert ingested: the cost of everything, ticks and serving included"},
	{Name: "rss_peak_mb", Unit: "MB", Bound: 0.20,
		Why: "daemon peak resident set: state held per alert stream, incident and frame"},
	{Name: "ingest_alerts_per_s", Unit: "1/s", Higher: true, Bound: 0.20,
		Why: "alerts ingested per second of sender wall time: capacity on blast_tcp, where TCP back-pressure sets the pace; the offered rate elsewhere unless the daemon pushes back or sheds"},
	{Name: "setup_s", Unit: "s", Bound: 0.25,
		Why: "build skynetd, generate pools, plan, boot until /healthz answers; median of three per run, so work moved into set-up shows"},
}

// perLayer is the traced run's output, one module of the repository per
// prefix. Why says what is timed and which end-to-end metric it should
// move.
var perLayer = []metricDef{
	{Name: "alert.json_decode_ns_per_alert", Unit: "ns",
		Why: "alert.Decoder.Decode + Validate over the run's alerts as JSON lines; moves cpu_us_per_alert and ingest_alerts_per_s on the TCP workloads only"},
	{Name: "alert.json_decode_allocs_per_alert", Unit: "count",
		Why: "heap allocations of the same calls"},
	{Name: "alert.wire_decode_ns_per_alert", Unit: "ns",
		Why: "Batch.AppendWireScratch + ValidateRow over the run's alerts as pipe datagrams; moves cpu_us_per_alert on flood_udp, next to nothing on wide_udp"},
	{Name: "alert.wire_decode_allocs_per_alert", Unit: "count",
		Why: "heap allocations of the same calls"},
	{Name: "ingest.tcp_rows_per_s", Unit: "1/s", Higher: true,
		Why: "an in-process ingest.ListenBatch with a counting handler, fed the run's JSON lines over loopback as fast as it reads; moves ingest_alerts_per_s and shed_share on blast_tcp"},
	{Name: "ingest.udp_rows_per_s", Unit: "1/s", Higher: true,
		Why: "the same server fed the run's datagrams as fast as one socket writes them; rows that arrive per second, kernel drops excluded"},
	{Name: "ingest.rows_per_batch", Unit: "count", Higher: true,
		Why: "rows per handler call on the run's transport: how well the dispatcher amortises the engine lock"},
	{Name: "ingest.queue_high_water", Unit: "count",
		Why: "deepest dispatch queue on the run's transport; at 8192 it sheds"},
	{Name: "ingest.shed_share", Unit: "share",
		Why: "rows the server's own queue shed on the run's transport"},
	{Name: "ingest.self_ns_per_alert", Unit: "ns",
		Why: "wall time per row through the server minus decode: socket read, queue, dispatch; moves cpu_us_per_alert on flood_* and blast_tcp"},
	{Name: "core.ingest_batch_ns_per_alert", Unit: "ns",
		Why: "Engine.IngestBatch on the engine wired like skynetd, per-row flood.ObserveRaw and provenance included; moves cpu_us_per_alert on flood_* and blast_tcp"},
	{Name: "preprocess.add_ns_per_alert", Unit: "ns",
		Why: "Preprocessor.AddBatch alone; part of core.ingest_batch_ns_per_alert"},
	{Name: "preprocess.tick_us_p50", Unit: "us",
		Why: "Preprocessor.Tick: classify, absorb, consolidate, sweep; moves feed_lag_* everywhere, most on flood_*"},
	{Name: "preprocess.tick_us_p75", Unit: "us", Why: "the same at the 75th percentile, the highest a run's 80 ticks support"},
	{Name: "preprocess.out_per_in", Unit: "share",
		Why: "structured alerts out per raw alert in: how much of the load is duplicates"},
	{Name: "preprocess.aggregates_live", Unit: "count",
		Why: "live aggregates at the end: the preprocessor's state size, part of rss_peak_mb"},
	{Name: "locator.add_ns_per_structured", Unit: "ns",
		Why: "Locator.AddBatch per structured alert; moves feed_lag_* and detect_* on wide_udp, flat on flood_*"},
	{Name: "locator.check_us_p50", Unit: "us",
		Why: "Locator.Check: expiry, components, thresholds; moves feed_lag_* on wide_udp"},
	{Name: "locator.check_us_p75", Unit: "us", Why: "the same at the 75th percentile, the highest a run's 80 ticks support"},
	{Name: "locator.nodes_live", Unit: "count",
		Why: "main-tree nodes at the end: the locator's state size, part of rss_peak_mb"},
	{Name: "locator.incidents_active", Unit: "count",
		Why: "active incidents at the end: what every tick re-scores and every snapshot carries"},
	{Name: "evaluator.score_us_per_incident", Unit: "us",
		Why: "Evaluator.Score per incident that needed scoring; moves feed_lag_* on wide_udp"},
	{Name: "core.tick_bare_us_p50", Unit: "us",
		Why: "Engine.Tick with no observer attached: the paper's pipeline alone"},
	{Name: "core.tick_bare_us_p75", Unit: "us", Why: "the same at the 75th percentile, the highest a run's 80 ticks support"},
	{Name: "core.tick_wired_us_p50", Unit: "us",
		Why: "Engine.Tick wired like skynetd (telemetry, spans, history, SLO, profiler labels, runtime, flood, provenance, fan-out); moves feed_lag_* and cpu_us_per_alert on all, most on wide_udp"},
	{Name: "core.tick_wired_us_p75", Unit: "us", Why: "the same at the 75th percentile, the highest a run's 80 ticks support"},
	{Name: "core.tick_wired_ns_per_alert", Unit: "ns",
		Why: "the wired ticks' total spread over the run's alerts: the tick's row in the cpu_us_per_alert budget"},
	{Name: "core.observer_share", Unit: "share",
		Why: "1 - bare/wired tick time: what the observers cost"},
	{Name: "core.self_us_per_tick", Unit: "us",
		Why: "bare tick minus preprocess, locator and evaluator called alone: zoom-in, bookkeeping, fork/join"},
	{Name: "fanout.encode_us_p50", Unit: "us",
		Why: "first Frame.Bytes of a tick's delta or snapshot (the lazy encode); moves feed_lag_* on wide_udp, next to nothing on flood_*"},
	{Name: "fanout.poll_us_p50", Unit: "us", Why: "Subscriber.Poll for one subscriber after a tick"},
	{Name: "fanout.ns_per_alert", Unit: "ns",
		Why: "poll and encode totals spread over the run's alerts: serving's row in the cpu_us_per_alert budget"},
	{Name: "fanout.frame_bytes_p50", Unit: "B", Why: "encoded delta size: what the SSE write moves per tick"},
	{Name: "fanout.frame_bytes_max", Unit: "B", Why: "largest delta of the run"},
	{Name: "fanout.rows_per_delta", Unit: "count",
		Why: "incident rows per delta frame the end-to-end client read: opened, updated and closed"},
	{Name: "core.fire_to_pub_ms_p50", Unit: "ms",
		Why: "end-to-end frames: pub_unix_ns minus the ticker fire time, so engine-lock wait plus tick; the larger part of feed_lag_*"},
	{Name: "core.fire_to_pub_ms_p75", Unit: "ms", Why: "the same at the 75th percentile"},
	{Name: "status.pub_to_client_ms_p50", Unit: "ms",
		Why: "end-to-end frames: client read time minus pub_unix_ns, so encode plus SSE write plus loopback; grows with frame size on wide_udp"},
	{Name: "status.pub_to_client_ms_p75", Unit: "ms", Why: "the same at the 75th percentile"},
	{Name: "gap.cpu_us_per_alert", Unit: "us",
		Why: "daemon cpu_us_per_alert minus the layers' per-alert sum: GC, scheduler, HTTP, profiler; a finding, not a target"},
	{Name: "gap.tick_us", Unit: "us",
		Why: "core.fire_to_pub_ms_p50 minus core.tick_wired_us_p50: engine-lock wait and what a loaded daemon adds to a tick; a finding, not a target"},
	{Name: "trace.overhead_share", Unit: "share",
		Why: "traced over untraced in-process replay of the same windows, minus 1"},
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}
