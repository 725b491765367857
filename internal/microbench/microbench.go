// Package microbench runs the pipeline's hot-path benchmarks
// programmatically (via testing.Benchmark) and reports machine-readable
// results — iterations, ns/op, B/op, allocs/op — backing the
// `skynet-bench -json` flag so perf regressions can be tracked by tooling
// instead of eyeballing `go test -bench` text.
package microbench

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/experiments"
	"skynet/internal/fanout"
	"skynet/internal/flood"
	"skynet/internal/hierarchy"
	"skynet/internal/incident"
	"skynet/internal/ingest"
	"skynet/internal/locator"
	"skynet/internal/preprocess"
	"skynet/internal/prof"
	"skynet/internal/provenance"
	"skynet/internal/slo"
	"skynet/internal/span"
	"skynet/internal/telemetry"
	"skynet/internal/topology"
	"skynet/internal/tsdb"
)

// Result is one benchmark's measurement in the JSON report.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// SpanStage is one pipeline stage's span-latency aggregate in the JSON
// report, mirrored from span.StageStat with explicit nanosecond fields so
// the schema is stable for tooling.
type SpanStage struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	MeanNs  float64 `json:"mean_ns"`
	MaxNs   int64   `json:"max_ns"`
	TotalNs int64   `json:"total_ns"`
}

// Report is the full `skynet-bench -json` document. SpanStages is only
// present when the run was asked for the per-stage breakdown (-spans).
type Report struct {
	GoVersion  string      `json:"go_version"`
	OS         string      `json:"goos"`
	Arch       string      `json:"goarch"`
	CPUs       int         `json:"cpus"`
	Results    []Result    `json:"results"`
	SpanStages []SpanStage `json:"span_stages,omitempty"`
}

var benchEpoch = time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)

// suite lists the benchmarks in report order. Each mirrors a hot path
// also covered by the repo-root `go test -bench` harness.
var suite = []struct {
	Name  string
	Bench func(b *testing.B)
}{
	{"engine_tick", func(b *testing.B) { benchEngineTick(b, nil, nil, nil, false, false, false) }},
	{"engine_tick_provenance", func(b *testing.B) {
		benchEngineTick(b, provenance.New(provenance.Config{}), nil, nil, false, false, false)
	}},
	{"engine_tick_spans", func(b *testing.B) {
		benchEngineTick(b, nil, span.NewTracer(0), nil, false, false, false)
	}},
	{"engine_tick_flood", func(b *testing.B) {
		benchEngineTick(b, nil, nil, flood.New(flood.Config{}), false, false, false)
	}},
	{"engine_tick_history", func(b *testing.B) {
		benchEngineTick(b, nil, nil, nil, true, false, false)
	}},
	{"engine_tick_profiled", func(b *testing.B) {
		benchEngineTick(b, nil, nil, nil, false, true, false)
	}},
	{"engine_tick_fanout", func(b *testing.B) {
		benchEngineTick(b, nil, nil, nil, false, false, true)
	}},
	{"preprocessor_stream", benchPreprocessorStream},
	{"incident_entries", benchIncidentEntries},
	{"batch_absorb", benchBatchAbsorb},
	{"locator_addcheck", benchLocatorAddCheck},
	{"locator_steady_check", benchLocatorSteadyCheck},
	{"locator_wide_check_250", func(b *testing.B) { LocatorWideCheck(b, 250) }},
	{"locator_wide_check_1000", func(b *testing.B) { LocatorWideCheck(b, 1000) }},
	{"locator_wide_check_4000", func(b *testing.B) { LocatorWideCheck(b, 4000) }},
	{"ftree_classify", benchFTreeClassify},
	{"wire_codec", benchWireCodec},
	{"wire_codec_scratch", benchWireCodecScratch},
	{"json_codec", benchJSONCodec},
	{"udp_ingest", benchUDPIngest},
	{"fanout_publish", benchFanoutPublish},
	{"fanout_delta_encode", benchFanoutDeltaEncode},
}

// Names lists the available benchmark names in report order.
func Names() []string {
	out := make([]string, len(suite))
	for i, s := range suite {
		out[i] = s.Name
	}
	return out
}

// Run executes the named benchmarks (all when names is empty) and returns
// the report. Benchmarks use the default go benchtime (~1s each).
func Run(names ...string) (*Report, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	rep := &Report{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
	// want shrinks as names are matched (leftovers are unknown names), so
	// filter on the original request, not on want's emptiness.
	filtered := len(names) > 0
	for _, s := range suite {
		if filtered && !want[s.Name] {
			continue
		}
		delete(want, s.Name)
		r := testing.Benchmark(s.Bench)
		rep.Results = append(rep.Results, Result{
			Name:        s.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	for n := range want {
		return nil, fmt.Errorf("microbench: unknown benchmark %q (have %v)", n, Names())
	}
	return rep, nil
}

// CollectSpanStages drives a span-traced engine through ticks ingest+tick
// rounds of the engine_tick workload and returns the per-stage span
// aggregates — the `span_stages` section of the `-spans` JSON report.
func CollectSpanStages(ticks int) ([]SpanStage, error) {
	if ticks <= 0 {
		ticks = 32
	}
	topo := topology.MustGenerate(topology.SmallConfig())
	alerts := experiments.SyntheticStructuredAlerts(topo, 2000, 1)
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(core.DefaultConfig(), topo, classifier, nil, nil)
	tracer := span.NewTracer(ticks)
	eng.EnableTracing(tracer)
	now := benchEpoch
	for i := 0; i < ticks; i++ {
		for j := range alerts {
			a := alerts[j]
			a.Time = now.Add(time.Duration(j%10) * time.Second)
			eng.Ingest(a)
		}
		now = now.Add(10 * time.Second)
		eng.Tick(now)
	}
	stats := tracer.StageStats()
	out := make([]SpanStage, len(stats))
	for i, s := range stats {
		out[i] = SpanStage{
			Name:    s.Name,
			Count:   s.Count,
			MeanNs:  float64(s.Mean().Nanoseconds()),
			MaxNs:   s.Max.Nanoseconds(),
			TotalNs: s.Total.Nanoseconds(),
		}
	}
	return out, nil
}

// Compare checks cur against base: every baseline benchmark whose ns/op
// regressed by more than tol (fractional — 0.15 means +15%) is reported,
// as is any baseline benchmark missing from the current run. When memTol
// is positive, bytes/op and allocs/op are gated the same way against
// memTol (allocation counts are far less noisy than wall time, so memTol
// is typically tighter in spirit even when numerically larger); memTol
// <= 0 disables the memory gate. Benchmarks new in cur are ignored so
// baselines need not be regenerated to add one. An empty result means the
// run is within tolerance.
func Compare(base, cur *Report, tol, memTol float64) []string {
	curBy := make(map[string]Result, len(cur.Results))
	for _, r := range cur.Results {
		curBy[r.Name] = r
	}
	var out []string
	for _, b := range base.Results {
		c, ok := curBy[b.Name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: in baseline but missing from current run", b.Name))
			continue
		}
		if b.NsPerOp > 0 {
			if delta := c.NsPerOp/b.NsPerOp - 1; delta > tol {
				out = append(out, fmt.Sprintf("%s: %.0f → %.0f ns/op (%+.1f%%, tolerance %+.0f%%)",
					b.Name, b.NsPerOp, c.NsPerOp, 100*delta, 100*tol))
			}
		}
		if memTol > 0 {
			out = appendMemRegression(out, b.Name, "bytes/op", b.BytesPerOp, c.BytesPerOp, memTol)
			out = appendMemRegression(out, b.Name, "allocs/op", b.AllocsPerOp, c.AllocsPerOp, memTol)
		}
	}
	return out
}

// appendMemRegression gates one memory metric. A baseline of zero is a
// hard floor: any growth from zero is reported, since no ratio can
// express it and a zero-alloc path silently starting to allocate is
// exactly the regression the gate exists for.
func appendMemRegression(out []string, name, metric string, base, cur int64, memTol float64) []string {
	if base == 0 {
		if cur > 0 {
			out = append(out, fmt.Sprintf("%s: 0 → %d %s (baseline was allocation-free)", name, cur, metric))
		}
		return out
	}
	if delta := float64(cur)/float64(base) - 1; delta > memTol {
		out = append(out, fmt.Sprintf("%s: %d → %d %s (%+.1f%%, tolerance %+.0f%%)",
			name, base, cur, metric, 100*delta, 100*memTol))
	}
	return out
}

// benchEngineTick drives repeated ingest+tick rounds over a severe-failure
// batch, optionally with the lineage recorder, span tracer, flood
// detector, the full telemetry-history stack (registry + per-tick
// sampler + SLO burn-rate engine with self-monitoring on), the
// continuous profiler's always-on parts (pprof stage labeler +
// runtime/metrics sampler), or the fan-out serving hub attached — each
// pairing with the bare run bounds that instrument's overhead per tick.
func benchEngineTick(b *testing.B, rec *provenance.Recorder, tracer *span.Tracer, fl *flood.Recorder, history, profiled, fan bool) {
	topo := topology.MustGenerate(topology.SmallConfig())
	alerts := experiments.SyntheticStructuredAlerts(topo, 2000, 1)
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(core.DefaultConfig(), topo, classifier, nil, nil)
	if rec != nil {
		eng.EnableProvenance(rec)
	}
	if tracer != nil {
		eng.EnableTracing(tracer)
	}
	if fl != nil {
		eng.EnableFlood(fl)
	}
	if profiled {
		eng.EnableProfiling(prof.NewLabeler(eng.MaxShards()))
		eng.EnableRuntimeMetrics(prof.NewRuntime(telemetry.New()))
	}
	if fan {
		hub := fanout.NewHub(fanout.Config{Ring: 1024})
		defer hub.Close()
		eng.EnableFanout(hub)
	}
	if history {
		reg := telemetry.New()
		eng.EnableTelemetry(reg, nil)
		db := tsdb.New(tsdb.Config{})
		db.RegisterMetrics(reg)
		eng.EnableHistory(tsdb.NewSampler(db, reg))
		sloEng := slo.New(db, slo.DefaultRules(500*time.Millisecond))
		sloEng.RegisterMetrics(reg)
		eng.EnableSLO(sloEng, true)
	}
	now := benchEpoch
	// Built once; only the Time column is rewritten per round (IngestBatch
	// copies the columns out, so the engine sees a fresh batch per tick).
	var batch alert.Batch
	for j := range alerts {
		batch.Append(&alerts[j])
	}
	var ts [10]time.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range ts {
			ts[k] = now.Add(time.Duration(k) * time.Second)
		}
		for j := range batch.Time {
			batch.Time[j] = ts[j%10]
		}
		eng.IngestBatch(&batch)
		now = now.Add(10 * time.Second)
		eng.Tick(now)
	}
}

func benchPreprocessorStream(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	raw := experiments.SyntheticStructuredAlerts(topo, 20000, 2)
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		preprocess.ProcessFunc(preprocess.DefaultConfig(), topo, classifier, raw, 10*time.Second,
			func(batch []alert.Alert) { n += len(batch) })
		if n == 0 {
			b.Fatal("no output")
		}
	}
}

// benchIncidentEntries measures the pooled incident output path: slab
// appends via AddRef (pre-sized with Grow, so steady state is
// allocation-free), then the rev-memoized report views the evaluator and
// status surfaces read every tick.
func benchIncidentEntries(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	alerts := experiments.SyntheticStructuredAlerts(topo, 8000, 1)
	root := hierarchy.MustNew("RG01")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := incident.New(1, root)
		in.Grow(len(alerts))
		for j := range alerts {
			in.AddRef(&alerts[j])
		}
		if len(in.Locations()) == 0 || len(in.EntriesByClass(alert.ClassFailure)) == 0 {
			b.Fatal("incident absorbed nothing")
		}
	}
}

// benchBatchAbsorb measures the columnar hand-off cycle: a reused batch
// filled row-by-row (the ingest side), then bulk-absorbed into a second
// reused batch with AppendRange (the preprocess side). Both batches keep
// their column capacity across rounds, so steady state is allocation-free.
func benchBatchAbsorb(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	alerts := experiments.SyntheticStructuredAlerts(topo, 2000, 1)
	var src, dst alert.Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		for j := range alerts {
			src.Append(&alerts[j])
		}
		dst.Reset()
		dst.AppendRange(&src, 0, src.Len())
		if dst.Len() != len(alerts) {
			b.Fatal("absorb lost rows")
		}
	}
}

func benchLocatorAddCheck(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	alerts := experiments.SyntheticStructuredAlerts(topo, 40000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc := locator.New(locator.DefaultConfig(), topo)
		for j := range alerts {
			loc.Add(alerts[j])
		}
		loc.Check(benchEpoch.Add(time.Minute))
	}
}

// benchLocatorSteadyCheck measures a Check with no alert-set change — the
// incremental connectivity path, where the cached component partition is
// reused and only thresholding runs. This is the per-tick steady-state
// cost during a long-lived flood.
func benchLocatorSteadyCheck(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	alerts := experiments.SyntheticStructuredAlerts(topo, 40000, 1)
	loc := locator.New(locator.DefaultConfig(), topo)
	for j := range alerts {
		loc.Add(alerts[j])
	}
	now := benchEpoch.Add(time.Minute)
	loc.Check(now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc.Check(now)
	}
}

var productionTopo = sync.OnceValue(func() *topology.Topology {
	return topology.MustGenerate(topology.ProductionConfig())
})

// LocatorWideCheck measures the locator's per-tick cost against the
// number of concurrent incidents — the axis Figure 8c lacks. n mutually
// non-adjacent production-topology ToRs (ToRs link only to their
// cluster's routers) each carry six streams, two of them failure-class,
// so each is an incident of its own; one iteration is a tick that
// re-observes 64 of those streams and runs Check. The work a tick brings
// is constant, so the cost should grow with n only through O(n)
// bookkeeping — not through anything per active incident per alert or
// per component.
func LocatorWideCheck(b *testing.B, n int) {
	topo := productionTopo()
	var tors []hierarchy.Path
	for i := range topo.Devices {
		if d := &topo.Devices[i]; d.Role == topology.RoleToR {
			tors = append(tors, d.Path)
		}
	}
	if len(tors) < n {
		b.Fatalf("production topology has %d ToRs, need %d", len(tors), n)
	}
	types := []struct {
		src alert.Source
		typ string
	}{
		{alert.SourcePing, alert.TypePacketLoss},
		{alert.SourcePing, alert.TypeEndToEndICMP},
		{alert.SourceOutOfBand, alert.TypeDeviceInaccessible},
		{alert.SourceOutOfBand, alert.TypeHighCPU},
		{alert.SourceSNMP, alert.TypeCRCError},
		{alert.SourceTraffic, alert.TypeTrafficCongestion},
	}
	now := benchEpoch
	streams := make([]alert.Alert, 0, n*len(types))
	for i, stride := 0, len(tors)/n; i < n; i++ {
		for _, k := range types {
			streams = append(streams, alert.Alert{
				Source: k.src, Type: k.typ, Class: alert.Classify(k.src, k.typ),
				Time: now, End: now, Location: tors[i*stride], Count: 1,
			})
		}
	}
	loc := locator.New(locator.DefaultConfig(), topo)
	loc.AddBatch(streams)
	if created := loc.Check(now); len(created) != n {
		b.Fatalf("%d devices opened %d incidents", n, len(created))
	}
	// Every stream is re-observed once per len(streams)/64 ticks — 38 s of
	// 100 ms ticks at n = 4000, well inside NodeTTL, so nothing expires.
	batch := make([]alert.Alert, 64)
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(100 * time.Millisecond)
		for j := range batch {
			batch[j] = streams[next]
			batch[j].Time, batch[j].End = now, now
			next = (next + 1) % len(streams)
		}
		loc.AddBatch(batch)
		if created := loc.Check(now); len(created) != 0 || loc.ActiveCount() != n {
			b.Fatalf("tick %d: %d created, %d active, want 0 and %d", i, len(created), loc.ActiveCount(), n)
		}
	}
}

func benchFTreeClassify(b *testing.B) {
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		b.Fatal(err)
	}
	line := "%LINK-3-UPDOWN: Interface TenGigE0/1/0/25, changed state to down (bench)"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := classifier.ClassifyLine(line); !ok {
			b.Fatal("line did not classify")
		}
	}
}

func benchWireCodec(b *testing.B) {
	a := alert.Alert{
		Source: alert.SourcePing, Type: alert.TypePacketLoss, Class: alert.ClassFailure,
		Time: benchEpoch, End: benchEpoch.Add(time.Minute),
		Location: hierarchy.MustNew("RG01", "CT01", "LS01", "ST01", "CL01", "dev-1"),
		Value:    0.25, Count: 3, Raw: "Packet loss 25.0% to peer",
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = alert.AppendWire(buf[:0], &a)
		if _, err := alert.ParseWire(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchJSONCodec is the TCP ingest decode: one JSON Lines alert, as the
// Encoder writes it, scanned into a reused batch through a warm
// WireScratch. Decode only — the daemon never encodes, and json.Marshal
// would be most of a round trip.
func benchJSONCodec(b *testing.B) {
	a := alert.Alert{
		Source: alert.SourcePing, Type: alert.TypePacketLoss, Class: alert.ClassFailure,
		Time: benchEpoch, End: benchEpoch.Add(time.Minute),
		Location: hierarchy.MustNew("RG01", "CT01", "LS01", "ST01", "CL01", "dev-1"),
		Value:    0.25, Count: 3, Raw: "Packet loss 25.0% to peer",
	}
	var buf bytes.Buffer
	if err := alert.WriteAll(&buf, []alert.Alert{a}); err != nil {
		b.Fatal(err)
	}
	line := bytes.TrimSpace(buf.Bytes())
	var sc alert.WireScratch
	var batch alert.Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batch.Len() == 512 {
			batch.Reset()
		}
		if err := batch.AppendJSON(line, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchUDPIngest is one datagram through the whole UDP front door over
// loopback: the sender's write, the reader's batch socket read and wire
// decode, the row-bounded queue, the dispatcher and a counting handler.
// The sender stays at most a window ahead of the handler — well inside
// the kernel's default socket buffer — so nothing is dropped and ns/op is
// the inverse of sustained loopback datagrams per second.
func benchUDPIngest(b *testing.B) {
	const window = 128
	var rows atomic.Int64
	srv, err := ingest.ListenBatch(ingest.Config{
		UDPAddr:    "127.0.0.1:0",
		QueueDepth: 1 << 16,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}, func(batch *alert.Batch) { rows.Add(int64(batch.Len())) })
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("udp", srv.UDPAddr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	a := alert.Alert{
		Source: alert.SourcePing, Type: alert.TypePacketLoss, Class: alert.ClassFailure,
		Time: benchEpoch, End: benchEpoch.Add(time.Minute),
		Location: hierarchy.MustNew("RG01", "CT01", "LS01", "ST01", "CL01", "dev-1"),
		Value:    0.25, Count: 3, Raw: "Packet loss 25.0% to peer",
	}
	payload := alert.AppendWire(nil, &a)
	// awaitRows spins until the handler has seen n rows; a datagram that
	// never arrives must fail the benchmark, not hang it.
	awaitRows := func(n int64) {
		for stalled := time.Now(); rows.Load() < n; runtime.Gosched() {
			if time.Since(stalled) > 10*time.Second {
				b.Fatalf("handler saw %d of %d datagrams: %+v", rows.Load(), n, srv.Stats())
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		awaitRows(int64(i) - window + 1)
		if _, err := conn.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	awaitRows(int64(b.N))
}

// benchWireCodecScratch is benchWireCodec through a WireScratch — the
// steady-state ingest decode path, where every string field is a cache
// hit and the round trip allocates nothing.
func benchWireCodecScratch(b *testing.B) {
	a := alert.Alert{
		Source: alert.SourcePing, Type: alert.TypePacketLoss, Class: alert.ClassFailure,
		Time: benchEpoch, End: benchEpoch.Add(time.Minute),
		Location: hierarchy.MustNew("RG01", "CT01", "LS01", "ST01", "CL01", "dev-1"),
		Value:    0.25, Count: 3, Raw: "Packet loss 25.0% to peer",
	}
	buf := make([]byte, 0, 256)
	var sc alert.WireScratch
	buf = alert.AppendWire(buf, &a)
	if _, err := sc.ParseWire(buf); err != nil { // warm the caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = alert.AppendWire(buf[:0], &a)
		if _, err := sc.ParseWire(buf); err != nil {
			b.Fatal(err)
		}
	}
}
