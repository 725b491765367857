// Command skynetd is the SkyNet analysis daemon: it listens for raw
// alerts over TCP (JSON Lines) and UDP (compact pipe format), runs the
// preprocessor → locator → evaluator pipeline on a wall-clock tick —
// sooner when a batch brings new evidence — and prints incident reports
// as they are created, updated, or closed.
//
// Usage:
//
//	skynetd -tcp :7070 -udp :7071
//	skynetd -tcp 127.0.0.1:0 -scale small   # with topology-aware scoping
//
// Send alerts with the ingest clients or anything that speaks the wire
// formats (see internal/alert). Stop with SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/fanout"
	"skynet/internal/flight"
	"skynet/internal/flood"
	"skynet/internal/ingest"
	"skynet/internal/preprocess"
	"skynet/internal/prof"
	"skynet/internal/provenance"
	"skynet/internal/slo"
	"skynet/internal/span"
	"skynet/internal/status"
	"skynet/internal/telemetry"
	"skynet/internal/topology"
	"skynet/internal/tsdb"
)

// version identifies the build; release pipelines override it with
// -ldflags "-X main.version=...".
var version = "dev"

// ingestQueueRows is the ingest queue's depth, derived from time at line
// rate rather than picked as a row count: the queue is what the readers
// fill while the dispatcher waits for the engine lock, so it has to hold
// the longest such stall times what the sockets deliver meanwhile, or the
// overload contract (shed, don't stall) fires on a flood the engine could
// have taken. One TCP connection delivers ~700 K rows/s since the JSON
// scanner (177 K through encoding/json), and the stall is a tick:
// bench/'s blast_tcp saw the queue 6.2–8.7 K rows deep over ten runs,
// 9–13 ms at that rate — the same stall that read 3.4–5.0 K rows at the
// old rate, when 8 192 rows were 46 ms of cover and are 12 ms now. The
// depth is the power of two that keeps that observed high water under a
// quarter of it: 65 536 rows, 94 ms at line rate. It bounds rows, not
// memory held — queued batches are the readers' pooled ones, ~350 B a
// row while they wait.
const ingestQueueRows = 1 << 16

// dutyFactor bounds the ticks new evidence starts: one waits until
// dutyFactor × the previous tick's duration has passed since that tick
// ended, which holds them under 1/dutyFactor of a core (1 %). Ticks
// cost 0.5–3 ms on bench/'s workloads, so a fresh (location, type)
// reaches the feed within a few hundred milliseconds even mid-flood,
// while wide_udp's ~3 ms ticks with new devices every 20 ms stay at the
// ceiling cadence. Measured alternatives are in DESIGN.md §6.
const dutyFactor = 100

// nextTick returns when the next tick is due: the ceiling after the
// previous tick's start, or — when new evidence is waiting (woken) —
// the end of the duty gap after that tick, whichever comes first, and
// never before now.
func nextTick(now, lastStart, lastEnd time.Time, lastDur, ceiling time.Duration, woken bool) time.Time {
	due := lastStart.Add(ceiling)
	if early := lastEnd.Add(dutyFactor * lastDur); woken && early.Before(due) {
		due = early
	}
	if due.Before(now) {
		return now
	}
	return due
}

// tickLoop calls tick until stop closes: at the ceiling after the
// previous tick's start, or sooner when wake signals new evidence, as
// nextTick decides. The first wake after a tick arms the early timer;
// the loop stops listening for wakes until that tick has run, so later
// ones neither re-arm nor queue a second tick.
func tickLoop(ceiling time.Duration, wake, stop <-chan struct{}, tick func(now time.Time)) {
	lastStart := time.Now()
	lastEnd, lastDur := lastStart, time.Duration(0)
	timer := time.NewTimer(ceiling)
	defer timer.Stop()
	woken := false
	for {
		wakeC := wake
		if woken {
			wakeC = nil
		}
		select {
		case <-stop:
			return
		case <-wakeC:
			woken = true
			now := time.Now()
			if due := nextTick(now, lastStart, lastEnd, lastDur, ceiling, true); due.After(now) {
				rearm(timer, due.Sub(now))
				continue
			}
		case <-timer.C:
		}
		woken = false
		lastStart = time.Now()
		tick(lastStart)
		lastEnd = time.Now()
		lastDur = lastEnd.Sub(lastStart)
		rearm(timer, nextTick(lastEnd, lastStart, lastEnd, lastDur, ceiling, false).Sub(lastEnd))
	}
}

// rearm resets t to fire after d, discarding a fire it has not
// delivered yet.
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

func main() {
	var (
		tcpAddr  = flag.String("tcp", "127.0.0.1:7070", "TCP listen address (empty disables)")
		udpAddr  = flag.String("udp", "127.0.0.1:7071", "UDP listen address (empty disables)")
		httpAddr = flag.String("http", "127.0.0.1:7072", "HTTP status address (empty disables)")
		tick     = flag.Duration("tick", 10*time.Second,
			"longest interval between ticks; a batch that carries a new (location, type) ticks sooner, at most 1 % of a core")
		scale    = flag.String("scale", "", "optional synthetic topology: small or production")
		topoFile = flag.String("topo", "", "optional topology JSON file (overrides -scale)")
		seed     = flag.Int64("seed", 1, "topology seed")
		pprofOn  = flag.Bool("pprof", false, "mount /debug/pprof on the HTTP status server")
		workers  = flag.Int("workers", 0,
			"pipeline worker fan-out (0 = all cores, 1 = serial; output is identical)")
		provEvery = flag.Int("provenance", provenance.DefaultSampleEvery,
			"record lineage detail for 1 in N ingested alerts (1 = all, 0 disables; conservation counters stay exact)")
		flightDir = flag.String("flight-dir", "flight-dumps",
			"flight-recorder dump directory (empty disables dumps; triggers, /api/health, and /api/trace stay on)")
		sloTickP99 = flag.Duration("slo-tick-p99", flight.DefaultSLOTickP99,
			"self-SLO on tick latency; the burn-rate rule watching it fires the flight recorder's slo_burn trigger")
		flightMaxDumps = flag.Int("flight-max-dumps", 0,
			"max flight dump directories kept on disk; oldest are deleted past the cap (0 = keep all)")
		selfMonitor = flag.Bool("self-monitor", true,
			"inject synthetic meta/skynetd alerts through the ingest path when an SLO burn-rate rule fires")
		historySnap = flag.String("history-snapshot", "",
			"file for the final telemetry-history snapshot written on shutdown (default <flight-dir>/history-final.json; empty flight dir disables)")
		mutexFraction = flag.Int("mutex-fraction", 0,
			"mutex contention profiling: record 1 in N contention events (0 disables)")
		blockRate = flag.Int("block-rate", 0,
			"block profiling: record blocking events lasting >= N ns (0 disables)")
		profileDir = flag.String("profile-dir", "profiles",
			"continuous-profiler window archive directory (empty disables archiving; capture, telemetry, and /api/profile stay on)")
		profileInterval = flag.Duration("profile-interval", time.Minute,
			"continuous-profiler capture cadence, start to start")
		profileWindow = flag.Duration("profile-window", 5*time.Second,
			"continuous-profiler CPU capture length per window")
		profileMaxWindows = flag.Int("profile-max-windows", 16,
			"max profile window directories kept on disk; oldest are deleted past the cap")
		fanoutRing = flag.Int("fanout-ring", 1024,
			"fan-out ring capacity in frames (rounded up to a power of two); lagging subscribers past ring+slack are resynced from the snapshot")
		fanoutRate = flag.Float64("fanout-rate", 0,
			"per-subscriber event deliveries per second on /api/events (0 = unlimited; backlog coalesces, never queues)")
	)
	flag.Parse()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// Contention profiling is sampled and default-off; the flags wire
	// straight through to the runtime. Profiles appear on /debug/pprof
	// (with -pprof), in continuous-profiler windows, and in flight dumps.
	if *mutexFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexFraction)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	var topo *topology.Topology
	if *topoFile != "" {
		var err error
		topo, err = topology.LoadFile(*topoFile)
		if err != nil {
			fatal(log, err)
		}
		log.Info("topology loaded from file", "path", *topoFile,
			"devices", topo.NumDevices(), "links", topo.NumLinks())
	}
	switch {
	case topo != nil:
		// loaded from file above
	case *scale == "":
		log.Info("running without topology; connectivity scoping disabled")
	case *scale == "small" || *scale == "production":
		cfg := topology.SmallConfig()
		if *scale == "production" {
			cfg = topology.ProductionConfig()
		}
		cfg.Seed = *seed
		var err error
		topo, err = topology.Generate(cfg)
		if err != nil {
			fatal(log, err)
		}
		log.Info("topology generated", "devices", topo.NumDevices(), "links", topo.NumLinks())
	default:
		fatal(log, fmt.Errorf("unknown scale %q", *scale))
	}

	d, err := wire(options{
		tcpAddr: *tcpAddr, udpAddr: *udpAddr, workers: *workers, provEvery: *provEvery,
		flightDir: *flightDir, flightMaxDumps: *flightMaxDumps, sloTickP99: *sloTickP99,
		selfMonitor: *selfMonitor, profileDir: *profileDir, profileInterval: *profileInterval,
		profileWindow: *profileWindow, profileMaxWindows: *profileMaxWindows,
		fanoutRing: *fanoutRing, fanoutRate: *fanoutRate,
	}, topo, log)
	if err != nil {
		fatal(log, err)
	}
	defer d.close()
	d.profiler.Start()
	d.run(log, topo, *httpAddr, *pprofOn, *tick, finalSnapshotPath(*historySnap, *flightDir))
}

// options are the flag values the wiring depends on.
type options struct {
	tcpAddr, udpAddr  string
	workers           int
	provEvery         int
	flightDir         string
	flightMaxDumps    int
	sloTickP99        time.Duration
	selfMonitor       bool
	profileDir        string
	profileInterval   time.Duration
	profileWindow     time.Duration
	profileMaxWindows int
	fanoutRing        int
	fanoutRate        float64
}

// daemon is the engine with everything skynetd wires around it.
type daemon struct {
	// mu serializes the tick loop, the ingest dispatcher and the HTTP
	// status handlers.
	mu       sync.Mutex
	engine   *core.Engine
	reg      *telemetry.Registry
	journal  *telemetry.Journal
	tracer   *span.Tracer
	db       *tsdb.DB
	sloEng   *slo.Engine
	profiler *prof.Collector
	hub      *fanout.Hub
	prov     *provenance.Recorder // nil with -provenance 0
	floodRec *flood.Recorder
	srv      *ingest.Server
	flight   *flight.Recorder

	// wake carries the ingest dispatcher's "new evidence" signal to the
	// tick loop: one slot, sent without blocking and drained under mu
	// right before each tick, so a pending signal always means evidence
	// the next tick has not seen.
	wake chan struct{}
	// known and closedSeen are the tick loop's printing state: the
	// incidents it announced, and its cursor into the closed history.
	known      map[int]bool
	closedSeen int
}

// close stops what wire started — the listeners and the hub — and the
// profiler, if it was started.
func (d *daemon) close() {
	d.srv.Close()
	d.hub.Close()
	d.profiler.Stop()
}

// wire builds the engine, every observer and server on its tick path and
// the ingest listeners, and registers all of their metrics. The listeners
// are live when it returns; the continuous profiler is not started.
func wire(o options, topo *topology.Topology, log *slog.Logger) (*daemon, error) {
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		return nil, err
	}
	engineCfg := core.DefaultConfig()
	engineCfg.Workers = o.workers
	engine := core.NewEngine(engineCfg, topo, classifier, nil, nil)
	d := &daemon{engine: engine, wake: make(chan struct{}, 1), known: map[int]bool{}}
	engineMu := &d.mu

	// Telemetry: the registry backs GET /metrics, the journal backs
	// GET /api/journal.
	reg := telemetry.New()
	journal := telemetry.NewJournal(0)
	engine.EnableTelemetry(reg, journal)
	journal.RegisterMetrics(reg)

	// Tracing: a span tree per tick, feeding /api/trace, the per-phase
	// span histograms on /metrics, and flight-recorder dumps.
	tracer := span.NewTracer(0)
	engine.EnableTracing(tracer)

	// Telemetry history: every registry metric sampled once per tick into
	// the tick-indexed store behind GET /api/query, flight-dump history
	// sections, and flood postmortem trajectory curves.
	db := tsdb.New(tsdb.Config{})
	db.RegisterMetrics(reg)
	engine.EnableHistory(tsdb.NewSampler(db, reg))

	// SLO watchdog: multi-window burn-rate rules over the history store;
	// with -self-monitor, burns feed back into the pipeline as synthetic
	// meta/skynetd alerts.
	sloEng := slo.New(db, slo.DefaultRules(o.sloTickP99))
	sloEng.RegisterMetrics(reg)
	engine.EnableSLO(sloEng, o.selfMonitor)

	// Continuous profiling: pipeline stages run under pprof labels, a
	// background collector captures short windowed CPU profiles on a
	// cadence and aggregates per-stage CPU fractions into skynet_prof_*
	// telemetry behind GET /api/profile; the runtime sampler feeds GC /
	// heap / scheduler health into the registry and the history store
	// (where the gc_pause burn-rate rule watches it).
	engine.EnableProfiling(prof.NewLabeler(engine.MaxShards()))
	engine.EnableRuntimeMetrics(prof.NewRuntime(reg))
	profiler := prof.NewCollector(prof.CollectorConfig{
		Dir:        o.profileDir,
		Interval:   o.profileInterval,
		Window:     o.profileWindow,
		MaxWindows: o.profileMaxWindows,
		Registry:   reg,
	})

	// Fan-out serving layer: every tick the engine publishes one encoded
	// incident-feed snapshot plus delta into the hub's shared ring, and
	// GET /api/events serves frames by reference — subscriber count never
	// touches the tick path. Event chatter (journal, flood, flight, SLO)
	// rides the same ring with SSE ids for Last-Event-ID resume.
	hub := fanout.NewHub(fanout.Config{
		Ring:      o.fanoutRing,
		Rate:      o.fanoutRate,
		WallStamp: true,
	})
	hub.RegisterMetrics(reg)
	engine.EnableFanout(hub)
	journal.SetNotify(func(ev telemetry.Event) { hub.Publish(status.EventTypeIncident, ev) })

	// Provenance: lineage conservation counters on /metrics and the
	// per-incident explain endpoint.
	var prov *provenance.Recorder
	if o.provEvery > 0 {
		prov = provenance.New(provenance.Config{SampleEvery: o.provEvery})
		engine.EnableProvenance(prov)
		prov.RegisterMetrics(reg)
	}

	// Flood forensics: the episode detector rides the engine tick, tags
	// telemetry with the episode ID, and accumulates per-episode
	// postmortems for GET /api/floods.
	floodRec := flood.New(flood.Config{})
	engine.EnableFlood(floodRec)
	floodRec.RegisterMetrics(reg)
	floodRec.SetHistory(flood.HistoryFromDB(db,
		tsdb.MetricTickDuration,
		"skynet_raw_alerts_total",
		"skynet_active_incidents",
		"skynet_preprocess_pending_depth"))
	floodRec.SetNotify(func(ev flood.Event) {
		hub.Publish(status.EventTypeFlood, ev)
		log.Info("flood episode", "episode", ev.Episode, "phase", ev.Phase.String(), "detail", ev.Detail)
		if ev.Phase == flood.PhaseClosed && o.flightDir != "" {
			if rep, ok := floodRec.Report(ev.Episode); ok {
				if path, err := flood.WriteReport(o.flightDir, &rep); err != nil {
					log.Warn("flood report archive failed", "err", err)
				} else {
					log.Info("flood postmortem archived", "path", path)
				}
			}
		}
	})

	log.Info("pipeline configured",
		"workers", engine.Workers(),
		"preprocess_shards", engine.PreprocessShards(),
		"locator_shards", engine.LocatorShards(),
		"provenance_sample_every", o.provEvery)
	// The batch handler runs on the ingest dispatch goroutine and feeds
	// the engine's columnar path directly under engineMu (IngestBatch
	// copies the columns out, so the dispatcher's batch is safe to
	// reuse); a batch with new evidence wakes the tick loop. Backpressure
	// lives inside ingest: its queue buffers while the engine ticks, and
	// overflow is shed there — counted on the
	// skynet_ingest_rejected_queue_full_total counter, never silently
	// dropped.
	srv, err := ingest.ListenBatch(ingest.Config{
		TCPAddr:     o.tcpAddr,
		UDPAddr:     o.udpAddr,
		MaxConns:    256,
		ReadTimeout: 5 * time.Minute,
		QueueDepth:  ingestQueueRows,
		Logger:      log,
	}, func(b *alert.Batch) {
		engineMu.Lock()
		if engine.IngestBatch(b) {
			select {
			case d.wake <- struct{}{}:
			default:
			}
		}
		engineMu.Unlock()
	})
	if err != nil {
		hub.Close()
		return nil, err
	}
	srv.RegisterMetrics(reg)

	// Flight recorder: watches SLO burn events, ingest shed, journal drops,
	// queue high-water, flood closes and provenance conservation; dumps
	// evidence on anomalies.
	flightSrc := flight.Sources{
		Shed:           func() int64 { return int64(srv.Stats().QueueFull) },
		JournalEvicted: journal.Evicted,
		Queue:          srv.QueueLoad,
		FloodClosed:    floodRec.ClosedCount,
		Metrics:        reg,
		Tracer:         tracer,
		SLOBurnEvents:  sloEng.EventCount,
		SLODetail:      sloEng.LastDetail,
		History:        func(w io.Writer) error { return db.SnapshotTo(w, time.Now()) },
		Profiles:       profiler.WriteLatest,
		Incidents: func() any {
			engineMu.Lock()
			defer engineMu.Unlock()
			active := engine.Active()
			out := make([]status.IncidentSummary, 0, len(active))
			for _, inc := range active {
				out = append(out, status.Summarize(inc))
			}
			return out
		},
	}
	if prov != nil {
		flightSrc.ProvInFlight = prov.InFlight
	}
	flightRec := flight.New(flight.Config{
		Dir:         o.flightDir,
		SLOTickP99:  o.sloTickP99,
		MaxDumpDirs: o.flightMaxDumps,
	}, flightSrc)
	flightRec.RegisterMetrics(reg)
	flightRec.SetNotify(func(ev flight.Event) {
		hub.Publish(status.EventTypeAnomaly, ev)
		log.Warn("flight-recorder trigger", "trigger", ev.Trigger, "detail", ev.Detail, "dump", ev.DumpDir)
	})
	sloEng.SetNotify(func(ev slo.Event) {
		hub.Publish(status.EventTypeSLO, ev)
		log.Warn("slo burn event", "rule", ev.Rule, "firing", ev.Firing, "detail", ev.Detail)
	})
	d.reg, d.journal, d.tracer, d.db, d.sloEng = reg, journal, tracer, db, sloEng
	d.profiler, d.hub, d.prov, d.floodRec, d.srv, d.flight = profiler, hub, prov, floodRec, srv, flightRec
	return d, nil
}

// run serves the status API and ticks the engine until SIGINT/SIGTERM,
// then writes the final history snapshot to snapshotPath (empty: none)
// and prints the run's summary.
func (d *daemon) run(log *slog.Logger, topo *topology.Topology, httpAddr string, pprofOn bool, tick time.Duration, snapshotPath string) {
	engine, engineMu, reg, journal, tracer, db := d.engine, &d.mu, d.reg, d.journal, d.tracer, d.db
	sloEng, profiler, hub, prov, floodRec, srv, flightRec := d.sloEng, d.profiler, d.hub, d.prov, d.floodRec, d.srv, d.flight
	if a := srv.TCPAddr(); a != nil {
		log.Info("tcp listening", "addr", a.String())
	}
	if a := srv.UDPAddr(); a != nil {
		log.Info("udp listening", "addr", a.String())
	}
	if httpAddr != "" {
		flags := map[string]string{}
		flag.VisitAll(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
		snap := status.NewSnapshotter(engineMu, engine, srv).
			WithTopology(topo).
			WithTelemetry(reg).
			WithJournal(journal).
			WithProvenance(prov).
			WithBuildInfo(status.BuildInfo{
				Version:   version,
				GoVersion: runtime.Version(),
				OS:        runtime.GOOS,
				Arch:      runtime.GOARCH,
				Workers:   engine.Workers(),
				Flags:     flags,
			}).
			WithPprof(pprofOn).
			WithFlight(flightRec).
			WithTracer(tracer).
			WithEvents(hub).
			WithFlood(floodRec).
			WithHistory(db).
			WithSLO(sloEng).
			WithProfiler(profiler)
		statusSrv, err := status.Listen(httpAddr, snap, log)
		if err != nil {
			fatal(log, err)
		}
		defer statusSrv.Close()
		log.Info("http status listening", "addr", statusSrv.Addr().String(), "pprof", pprofOn)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		log.Info("shutting down", "signal", (<-sigs).String())
		close(stop)
	}()
	tickLoop(tick, d.wake, stop, func(now time.Time) { d.tick(log, now) })

	// Close the fan-out hub first so every SSE subscriber wakes with
	// ErrClosed and /api/events handlers return before the HTTP server's
	// deferred graceful shutdown runs.
	hub.Close()
	// Flush the final telemetry-history snapshot: the whole run's
	// tick-indexed series, the postmortem artifact CI uploads.
	if snapshotPath != "" {
		if err := writeHistorySnapshot(db, snapshotPath); err != nil {
			log.Warn("history snapshot failed", "err", err)
		} else {
			log.Info("history snapshot written", "path", snapshotPath,
				"series", len(db.SeriesNames()), "samples", db.Samples(),
				"resident_bytes", db.MemoryBytes())
		}
	}
	engineMu.Lock()
	stats := engine.PreprocessStats()
	total := len(engine.AllIncidents())
	engineMu.Unlock()
	srvStats := srv.Stats()
	fmt.Printf("ingested %d alerts (%d rejected, %d shed, %d datagrams dropped by the kernel), %d structured, queue high water %d\n",
		srvStats.AlertsAccepted, srvStats.AlertsRejected, srvStats.QueueFull, srvStats.UDPKernelDrops, stats.Out, srvStats.QueueHighWater)
	fmt.Printf("%d incidents over the run, %d lifecycle events journaled\n", total, journal.Len())
}

// tick runs one engine tick at now, feeds its wall-clock latency to the
// flood and flight recorders, and prints the incidents it opened and
// closed.
func (d *daemon) tick(log *slog.Logger, now time.Time) {
	d.mu.Lock()
	select {
	case <-d.wake: // this tick absorbs the evidence it announced
	default:
	}
	tickStart := time.Now()
	res := d.engine.Tick(now)
	tickDur := time.Since(tickStart)
	closed := d.engine.ClosedSince(d.closedSeen)
	d.closedSeen += len(closed)
	active := d.engine.ActiveCount()
	d.mu.Unlock()
	// Observe outside the engine lock: a dump's incident snapshot takes
	// the lock itself. Perf feeds the open flood episode's report
	// without touching its deterministic episode state.
	d.floodRec.ObservePerf(tickDur, int64(d.srv.Stats().QueueFull))
	d.flight.Observe(now, tickDur)
	for _, inc := range res.NewIncidents {
		d.known[inc.ID] = true
		fmt.Printf("--- NEW INCIDENT ---\n%s\n", inc.Render())
	}
	for _, inc := range closed {
		if d.known[inc.ID] {
			delete(d.known, inc.ID)
			fmt.Printf("--- INCIDENT %d CLOSED at %s ---\n", inc.ID, inc.End.Format(time.TimeOnly))
		}
	}
	if len(res.NewIncidents) == 0 && res.Structured > 0 {
		log.Info("tick", "structured", res.Structured, "active", active)
	}
}

// finalSnapshotPath resolves the -history-snapshot flag: an explicit
// path wins; otherwise the snapshot lands next to the flight dumps, and
// an empty flight dir disables it.
func finalSnapshotPath(flagPath, flightDir string) string {
	if flagPath != "" {
		return flagPath
	}
	if flightDir == "" {
		return ""
	}
	return filepath.Join(flightDir, "history-final.json")
}

func writeHistorySnapshot(db *tsdb.DB, path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = db.SnapshotTo(f, time.Now())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(log *slog.Logger, err error) {
	log.Error("fatal", "err", err)
	os.Exit(1)
}
