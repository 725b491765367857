package core_test

// External test package: the fixture generator lives in
// internal/experiments, which imports core.

import (
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/experiments"
	"skynet/internal/fanout"
	"skynet/internal/flood"
	"skynet/internal/preprocess"
	"skynet/internal/prof"
	"skynet/internal/provenance"
	"skynet/internal/slo"
	"skynet/internal/span"
	"skynet/internal/telemetry"
	"skynet/internal/topology"
	"skynet/internal/tsdb"
)

// BenchmarkEngineTick drives repeated ingest+tick rounds over a
// 2 000-alert severe-failure batch. "bare" runs the engine with nothing
// attached at the default worker fan-out; "serial" and "workers4" pin the
// fan-out; every other sub-benchmark attaches one observer, so its
// distance from "bare" is that observer's cost per tick.
func BenchmarkEngineTick(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	alerts := experiments.SyntheticStructuredAlerts(topo, 2000, 1)
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
		attach  func(b *testing.B, eng *core.Engine)
	}{
		{name: "bare"},
		{name: "serial", workers: 1},
		{name: "workers4", workers: 4},
		{name: "telemetry", attach: func(b *testing.B, eng *core.Engine) {
			eng.EnableTelemetry(telemetry.New(), telemetry.NewJournal(0))
		}},
		{name: "provenance", attach: func(b *testing.B, eng *core.Engine) {
			eng.EnableProvenance(provenance.New(provenance.Config{}))
		}},
		{name: "spans", attach: func(b *testing.B, eng *core.Engine) {
			eng.EnableTracing(span.NewTracer(0))
		}},
		// The batch rate keeps an episode open for the whole run: the
		// recorder's worst case, aggregating every tick.
		{name: "flood", attach: func(b *testing.B, eng *core.Engine) {
			eng.EnableFlood(flood.New(flood.Config{}))
		}},
		// The full telemetry-history stack: registry, per-tick sampler and
		// the SLO burn-rate engine with self-monitoring on.
		{name: "history", attach: func(b *testing.B, eng *core.Engine) {
			reg := telemetry.New()
			eng.EnableTelemetry(reg, nil)
			db := tsdb.New(tsdb.Config{})
			db.RegisterMetrics(reg)
			eng.EnableHistory(tsdb.NewSampler(db, reg))
			sloEng := slo.New(db, slo.DefaultRules(500*time.Millisecond))
			sloEng.RegisterMetrics(reg)
			eng.EnableSLO(sloEng, true)
		}},
		// The continuous profiler's always-on parts: pprof stage labels
		// and the runtime/metrics sampler.
		{name: "profiled", attach: func(b *testing.B, eng *core.Engine) {
			eng.EnableProfiling(prof.NewLabeler(eng.MaxShards()))
			eng.EnableRuntimeMetrics(prof.NewRuntime(telemetry.New()))
		}},
		{name: "fanout", attach: func(b *testing.B, eng *core.Engine) {
			hub := fanout.NewHub(fanout.Config{Ring: 1024})
			b.Cleanup(hub.Close)
			eng.EnableFanout(hub)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Workers = bc.workers
			eng := core.NewEngine(cfg, topo, classifier, nil, nil)
			if bc.attach != nil {
				bc.attach(b, eng)
			}
			// Built once; only the Time column is rewritten per round.
			// IngestBatch copies the columns out, so the engine sees a
			// fresh batch every tick while the harness models a collector
			// that reuses its buffer.
			var batch alert.Batch
			for j := range alerts {
				batch.Append(&alerts[j])
			}
			now := time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)
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
			b.ReportMetric(float64(len(alerts)), "alerts/tick")
		})
	}
}
