// Package trace reads and writes alert traces: JSON Lines files of raw
// alerts, optionally gzip-compressed. Traces decouple workload generation
// from analysis — generate once with skynet-gen, replay many times with
// skynet-replay or the benchmarks.
package trace

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/fanout"
	"skynet/internal/flood"
	"skynet/internal/ftree"
	"skynet/internal/monitors"
	"skynet/internal/netsim"
	"skynet/internal/preprocess"
	"skynet/internal/prof"
	"skynet/internal/provenance"
	"skynet/internal/scenario"
	"skynet/internal/slo"
	"skynet/internal/span"
	"skynet/internal/telemetry"
	"skynet/internal/topology"
	"skynet/internal/tsdb"
)

// Write stores alerts to a file. Paths ending in ".gz" are compressed.
func Write(path string, alerts []alert.Alert) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: close %s: %w", path, cerr)
		}
	}()
	var w io.Writer = f
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(f)
		defer func() {
			if cerr := gz.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("trace: gzip close: %w", cerr)
			}
		}()
		w = gz
	}
	if err := alert.WriteAll(w, alerts); err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}

// Read loads a trace file written by Write.
func Read(path string) ([]alert.Alert, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("trace: gzip %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	alerts, err := alert.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read %s: %w", filepath.Base(path), err)
	}
	return alerts, nil
}

// GenerateOptions configures synthetic trace generation.
type GenerateOptions struct {
	// Topology to simulate over.
	Topology topology.Config
	// Monitors configures the fleet.
	Monitors monitors.Config
	// Scenarios is how many failure scenarios to inject with the Figure 1
	// category mix.
	Scenarios int
	// Spacing separates scenario start times.
	Spacing time.Duration
	// Window is the total simulated duration.
	Window time.Duration
	// Start anchors simulated time.
	Start time.Time
	// Seed drives all randomness.
	Seed int64
}

// DefaultGenerateOptions returns a small, fast workload.
func DefaultGenerateOptions() GenerateOptions {
	return GenerateOptions{
		Topology:  topology.SmallConfig(),
		Monitors:  monitors.DefaultConfig(),
		Scenarios: 3,
		Spacing:   20 * time.Minute,
		Window:    time.Hour,
		Start:     time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC),
		Seed:      1,
	}
}

// Generated bundles a synthetic trace with its ground truth.
type Generated struct {
	Alerts    []alert.Alert
	Scenarios []scenario.Scenario
	Topo      *topology.Topology
}

// Generate produces a raw alert trace by simulating scenarios under the
// monitor fleet.
func Generate(opts GenerateOptions) (*Generated, error) {
	topo, err := topology.Generate(opts.Topology)
	if err != nil {
		return nil, err
	}
	sim := netsim.New(topo, opts.Seed)
	gen := scenario.NewGenerator(topo, opts.Seed)
	scs := gen.Draw(opts.Scenarios, opts.Start.Add(2*time.Minute), opts.Spacing)
	for i := range scs {
		if err := scs[i].Inject(sim); err != nil {
			return nil, err
		}
	}
	fleet := monitors.NewFleet(topo, opts.Monitors)
	alerts, err := fleet.Run(sim, opts.Start, opts.Start.Add(opts.Window), opts.Monitors.PingInterval)
	if err != nil {
		return nil, err
	}
	return &Generated{Alerts: alerts, Scenarios: scs, Topo: topo}, nil
}

// ReplayOptions extends Replay with observability hooks. The zero value
// reproduces plain Replay.
type ReplayOptions struct {
	// Tick is the pipeline cadence (default 10 s).
	Tick time.Duration
	// Telemetry, when set, instruments the engine and records replay
	// throughput on the registry.
	Telemetry *telemetry.Registry
	// Journal, when set, receives incident lifecycle events stamped with
	// simulated time.
	Journal *telemetry.Journal
	// Provenance, when set, records per-alert lineage and per-incident
	// trigger/score evidence on the recorder.
	Provenance *provenance.Recorder
	// Tracer, when set, records a span tree per tick into its ring —
	// the data behind `skynet-replay -spans`.
	Tracer *span.Tracer
	// Flood, when set, detects flood episodes during the replay and
	// accumulates per-episode postmortem reports — the data behind
	// `skynet-replay -floods`. Tick wall latency feeds its Perf section.
	Flood *flood.Recorder
	// History, when set (Telemetry required), samples every registry
	// metric once per tick into the tick-indexed store — the data behind
	// `skynet-replay -history`. Configure the store with
	// tsdb.DeterministicFilter to keep replay snapshots bit-identical
	// across worker counts.
	History *tsdb.DB
	// SLORules, when non-empty (History required), attaches a burn-rate
	// engine evaluated over the store after every tick.
	SLORules []slo.Rule
	// SelfMonitor converts SLO burn verdicts into synthetic meta/skynetd
	// alerts injected through the engine's own ingest path.
	SelfMonitor bool
	// TickLatencyModel, when set, replaces the measured tick latency fed
	// to the history store and SLO engine with a deterministic function
	// of the tick index — the forced-breach hook for replay tests.
	TickLatencyModel func(tick uint64) time.Duration
	// Profile runs the replay under pprof stage labels (a prof.Labeler
	// sized to the engine's widest fan-out). Labels only change what a
	// concurrently captured profile attributes, never the pipeline's
	// output — the bit-identity tests replay with this on.
	Profile bool
	// RuntimeMetrics attaches a runtime/metrics sampler (Telemetry
	// required): skynet_runtime_ gauges refresh every tick. The series
	// are host-dependent; tsdb.DeterministicFilter excludes them, so
	// deterministic history snapshots are unaffected.
	RuntimeMetrics bool
	// Fanout, when set, attaches the snapshot+delta serving hub: every
	// tick publishes one encoded feed snapshot plus delta into the
	// hub's ring. Publishing changes no pipeline state, so replays stay
	// bit-identical; skynet_fanout_ metrics are subscriber-dependent
	// and excluded by tsdb.DeterministicFilter.
	Fanout *fanout.Hub
}

// Replay pushes a raw trace through a fresh engine, ticking at the given
// cadence, and returns the engine for inspection.
func Replay(alerts []alert.Alert, topo *topology.Topology, engineCfg core.Config, tick time.Duration) (*core.Engine, error) {
	return ReplayWithOptions(alerts, topo, engineCfg, ReplayOptions{Tick: tick})
}

// ReplayWithOptions is Replay with telemetry attached: stage timings and
// funnel counters accumulate on opts.Telemetry, lifecycle events on
// opts.Journal, and the replay's own wall-clock throughput is published
// as skynet_replay_* metrics.
func ReplayWithOptions(alerts []alert.Alert, topo *topology.Topology, engineCfg core.Config, opts ReplayOptions) (*core.Engine, error) {
	classifier, err := preprocessClassifier()
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(engineCfg, topo, classifier, nil, nil)
	if opts.Telemetry != nil || opts.Journal != nil {
		eng.EnableTelemetry(opts.Telemetry, opts.Journal)
	}
	if opts.Provenance != nil {
		eng.EnableProvenance(opts.Provenance)
	}
	if opts.Tracer != nil {
		eng.EnableTracing(opts.Tracer)
	}
	if opts.Flood != nil {
		eng.EnableFlood(opts.Flood)
	}
	if opts.Profile {
		eng.EnableProfiling(prof.NewLabeler(eng.MaxShards()))
	}
	if opts.RuntimeMetrics && opts.Telemetry != nil {
		eng.EnableRuntimeMetrics(prof.NewRuntime(opts.Telemetry))
	}
	if opts.Fanout != nil {
		eng.EnableFanout(opts.Fanout)
	}
	if opts.History != nil {
		eng.EnableHistory(tsdb.NewSampler(opts.History, opts.Telemetry))
		if len(opts.SLORules) > 0 {
			eng.EnableSLO(slo.New(opts.History, opts.SLORules), opts.SelfMonitor)
		}
		if opts.TickLatencyModel != nil {
			eng.SetTickLatencyModel(opts.TickLatencyModel)
		}
	}
	// tickOnce advances the engine one tick; with a flood recorder the
	// tick's wall latency feeds the open episode's Perf section (the
	// deterministic episode state never sees it).
	tickOnce := func(at time.Time) {
		if opts.Flood == nil {
			eng.Tick(at)
			return
		}
		t0 := time.Now()
		eng.Tick(at)
		opts.Flood.ObservePerf(time.Since(t0), 0)
	}
	var start time.Time
	if opts.Telemetry != nil {
		start = time.Now()
	}
	if len(alerts) > 0 {
		tick := opts.Tick
		if tick <= 0 {
			tick = 10 * time.Second
		}
		// Alerts accumulate into a reused batch that is flushed right
		// before each tick: core.Engine.IngestBatch, the path the ingest
		// listeners feed in production.
		var batch alert.Batch
		flush := func() {
			if batch.Len() > 0 {
				eng.IngestBatch(&batch)
				batch.Reset()
			}
		}
		next := alerts[0].Time.Add(tick)
		for i := range alerts {
			for alerts[i].Time.After(next) {
				flush()
				tickOnce(next)
				next = next.Add(tick)
			}
			batch.Append(&alerts[i])
		}
		flush()
		end := alerts[len(alerts)-1].Time.Add(engineCfg.Locator.NodeTTL + tick)
		for !next.After(end) {
			tickOnce(next)
			next = next.Add(tick)
		}
	}
	if opts.Telemetry != nil {
		elapsed := time.Since(start).Seconds()
		opts.Telemetry.Counter("skynet_replay_alerts_total",
			"Raw alerts pushed through the replay engine.").Add(int64(len(alerts)))
		opts.Telemetry.Gauge("skynet_replay_seconds",
			"Wall time of the last trace replay.").Set(elapsed)
		if elapsed > 0 {
			opts.Telemetry.Gauge("skynet_replay_alerts_per_second",
				"Replay ingest throughput of the last trace replay.").Set(float64(len(alerts)) / elapsed)
		}
	}
	return eng, nil
}

// preprocessClassifier builds the bootstrap syslog classifier used by
// replays (traces carry raw lines).
func preprocessClassifier() (*ftree.Classifier, error) {
	return preprocess.BootstrapClassifier()
}
