// Package core wires SkyNet's three modules — preprocessor, locator,
// evaluator — into the streaming analysis engine of Figure 5a, together
// with location zoom-in and the automatic-SOP hook for known failures.
//
// The engine is clock-driven: Ingest accepts raw alerts from any source
// (monitor fleets, network listeners, trace replays) and Tick advances the
// pipeline, returning what changed. All times are explicit; the engine
// never reads the wall clock, which makes replays and simulations exact.
//
// # Parallel execution
//
// Config.Workers fans the heavy stages out across goroutines: FT-tree
// classification and aggregation shards in the preprocessor, the
// location-sharded main alert tree in the locator, and per-incident
// zoom-in plus severity scoring in the evaluation stage. Every parallel
// phase writes only single-owner state and merges serially, so incident
// sets, IDs, and severities are bit-identical for every worker count —
// replays stay exact. Scoring is additionally incremental: an incident is
// only re-refined and re-scored when its content revision, the
// reachability samples, or the Eq. 2 time clamp could have changed its
// result.
package core

import (
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"skynet/internal/alert"
	"skynet/internal/evaluator"
	"skynet/internal/fanout"
	"skynet/internal/flood"
	"skynet/internal/ftree"
	"skynet/internal/hierarchy"
	"skynet/internal/incident"
	"skynet/internal/locator"
	"skynet/internal/par"
	"skynet/internal/preprocess"
	"skynet/internal/prof"
	"skynet/internal/provenance"
	"skynet/internal/slo"
	"skynet/internal/sop"
	"skynet/internal/span"
	"skynet/internal/telemetry"
	"skynet/internal/topology"
	"skynet/internal/tsdb"
	"skynet/internal/zoomin"
)

// evalStatePruneInterval is how many ticks pass between sweeps of the
// incremental evaluator's per-incident state map (entries for incidents
// that left the active set — closed or absorbed — are dropped).
const evalStatePruneInterval = 64

// Config aggregates the per-module configurations.
type Config struct {
	Preprocess preprocess.Config
	Locator    locator.Config
	Evaluator  evaluator.Config
	Zoom       zoomin.Config
	// EnableSOP turns on automatic mitigation of known failures.
	EnableSOP bool
	// Workers bounds the goroutine fan-out of every parallel stage.
	// 0 means GOMAXPROCS, 1 runs the whole pipeline serially. It is
	// copied into Preprocess.Workers and Locator.Workers unless those
	// are set explicitly. Output is identical for every setting.
	Workers int
}

// DefaultConfig returns the production parameters of every module.
func DefaultConfig() Config {
	return Config{
		Preprocess: preprocess.DefaultConfig(),
		Locator:    locator.DefaultConfig(),
		Evaluator:  evaluator.DefaultConfig(),
		Zoom:       zoomin.DefaultConfig(),
		EnableSOP:  true,
	}
}

// TickResult reports what one pipeline tick produced.
type TickResult struct {
	// Structured is the number of preprocessed alerts that entered the
	// locator this tick.
	Structured int
	// NewIncidents are incidents created this tick, already zoomed and
	// scored.
	NewIncidents []*incident.Incident
	// SOPExecutions are automatic mitigations applied this tick.
	SOPExecutions []*sop.Execution
}

// evalState is the incremental evaluator's memory of the inputs the last
// Refine+Score of one incident saw.
type evalState struct {
	rev  uint64    // incident content revision
	gen  uint64    // reachability-sample generation
	now  time.Time // evaluation time of the last scoring
	seen uint64    // last tick the incident was active (for pruning)
}

// Engine is the SkyNet pipeline. Not safe for concurrent use; callers
// serialize Ingest/Tick (the ingest layer does this). Tick internally
// fans out to Config.Workers goroutines.
type Engine struct {
	cfg     Config
	topo    *topology.Topology
	workers int

	pre     *preprocess.Preprocessor
	loc     *locator.Locator
	eval    *evaluator.Evaluator
	refiner *zoomin.Refiner
	sopEng  *sop.Engine

	samples   []zoomin.Sample
	sampleGen uint64

	evalStates map[int]evalState
	evalDirty  []*incident.Incident
	activeBuf  []*incident.Incident
	tickCount  uint64

	rawIn int
	one   alert.Batch // Ingest's one-row batch

	// Telemetry is optional; all fields below are nil/zero until
	// EnableTelemetry. stageHist holds the top-level stages' latency
	// histograms by stage name (nil map: no stage is timed).
	tel        *pipelineMetrics
	stageHist  map[string]*telemetry.Histogram
	reg        *telemetry.Registry
	journal    *telemetry.Journal
	lastState  map[int]incidentState
	journalNew map[int]struct{} // the differ's scratch set of this tick's created IDs
	closedSeen int

	// Tracing is optional; nil until EnableTracing.
	tracer  *span.Tracer
	spanTel *spanMetrics

	// Provenance is optional; nil until EnableProvenance.
	prov    *provenance.Recorder
	provBds []evaluator.Breakdown

	// Flood detection is optional; nil until EnableFlood.
	flood           *flood.Recorder
	floodClosedSeen int

	// Telemetry history + self-SLO are optional; nil until EnableHistory
	// and EnableSLO. latModel, when set, replaces the measured tick
	// latency with a deterministic function of the tick index.
	hist        *tsdb.Sampler
	sloEng      *slo.Engine
	sloLocs     []hierarchy.Path
	selfMon     bool
	selfAlertsN atomic.Int64
	latModel    func(tick uint64) time.Duration

	// Continuous profiling + runtime sampling are optional; nil until
	// EnableProfiling / EnableRuntimeMetrics. profL rides the stage seam;
	// both are nil-receiver safe.
	profL *prof.Labeler
	rtm   *prof.Runtime

	// Fan-out serving is optional; nil until EnableFanout. The tick's
	// snapshot and delta documents are built directly into hub-pooled
	// scratch (AcquireDelta/AcquireSnapshot) and ownership transfers on
	// publish; only the seen set is engine-owned.
	fan           *fanout.Hub
	fanSeen       map[int]struct{}
	fanClosedSeen int
}

// NewEngine assembles a pipeline. classifier may be nil (raw syslog is
// then dropped); topo may be nil (connectivity scoping and SOP disabled);
// sopExec may be nil (SOP disabled).
func NewEngine(cfg Config, topo *topology.Topology, classifier *ftree.Classifier, sopExec sop.Executor, sopUtil sop.TrafficOracle) *Engine {
	if cfg.Workers != 0 {
		if cfg.Preprocess.Workers == 0 {
			cfg.Preprocess.Workers = cfg.Workers
		}
		if cfg.Locator.Workers == 0 {
			cfg.Locator.Workers = cfg.Workers
		}
	}
	e := &Engine{
		cfg:        cfg,
		topo:       topo,
		workers:    par.Workers(cfg.Workers),
		pre:        preprocess.New(cfg.Preprocess, topo, classifier),
		loc:        locator.New(cfg.Locator, topo),
		eval:       evaluator.New(cfg.Evaluator, topo),
		refiner:    zoomin.NewRefiner(cfg.Zoom),
		evalStates: make(map[int]evalState),
	}
	if cfg.EnableSOP && topo != nil && sopExec != nil {
		e.sopEng = sop.NewEngine(topo, sopExec, sopUtil)
	}
	return e
}

// Workers reports the resolved evaluation-stage fan-out width.
func (e *Engine) Workers() int { return e.workers }

// PreprocessShards reports the preprocessor's resolved shard count.
func (e *Engine) PreprocessShards() int { return e.pre.Workers() }

// LocatorShards reports the locator's resolved shard count.
func (e *Engine) LocatorShards() int { return e.loc.Workers() }

// Ingest feeds one raw alert into the preprocessor: IngestBatch on a
// one-row batch.
func (e *Engine) Ingest(a alert.Alert) {
	e.one.Reset()
	e.one.Append(&a)
	e.IngestBatch(&e.one)
}

// IngestBatch feeds a columnar batch of raw alerts into the preprocessor
// — the one ingest path; the network listeners, trace replays and the
// simulation runner all call it. The rows are copied onto the
// preprocessor's pending columns; the caller may Reset and refill the
// batch immediately. It reports whether the batch carries new evidence
// (Preprocessor.AddBatch): a (location, type) no live aggregate holds,
// the only input that can open or grow an incident at the next Tick.
func (e *Engine) IngestBatch(b *alert.Batch) bool {
	n := b.Len()
	if n == 0 {
		return false
	}
	e.rawIn += n
	if e.tel != nil {
		e.tel.rawIngested.Add(int64(n))
	}
	if e.flood != nil {
		e.flood.ObserveRaw(b.Source)
	}
	return e.pre.AddBatch(b)
}

// SetReachability installs the latest end-to-end ping observations used by
// location zoom-in's reachability matrix. Installing an identical sample
// set is free; a changed set marks every active incident for re-refining.
func (e *Engine) SetReachability(samples []zoomin.Sample) {
	if !slices.Equal(samples, e.samples) {
		e.sampleGen++
	}
	e.samples = samples
}

// Tick advances the pipeline to now. It reads in the order an operator
// waits for it: the paper's three modules and the SOP hook (Fig. 5a),
// then publish — this tick's frame leaves for the serving hub — and only
// then the observers, so none of their cost is feed lag. Every stage
// boundary is one Enter and one Exit on the stage seam (span.Scope): the
// span, its item count, the pprof label and the
// skynet_stage_<name>_seconds observation all come from that one pair,
// each where the corresponding Enable* attached it.
func (e *Engine) Tick(now time.Time) TickResult {
	var res TickResult
	e.tickCount++
	start := time.Now()
	pending := e.pre.PendingDepth()
	act := e.tracer.StartTick(e.tickCount, now) // nil when tracing is off
	root := act.Scope(e.profL)

	st := e.enter(root, "preprocess")
	e.pre.SetScope(st.Scope)
	structured := e.pre.Tick(now)
	res.Structured = len(structured)
	st.Exit(len(structured))

	st = e.enter(root, "locate")
	sub := st.Enter("addbatch", nil)
	e.loc.SetScope(sub.Scope)
	e.loc.AddBatch(structured)
	sub.Exit(len(structured))
	sub = st.Enter("check", nil)
	e.loc.SetScope(sub.Scope)
	res.NewIncidents = e.loc.Check(now)
	sub.Exit(len(res.NewIncidents))
	st.Exit(len(structured))

	st = e.enter(root, "evaluate")
	active := e.evaluate(now, st.Scope)
	st.Exit(len(e.evalDirty))

	st = e.enter(root, "sop")
	if e.sopEng != nil {
		for _, in := range res.NewIncidents {
			if exec, ok := e.sopEng.Consider(in, now); ok {
				res.SOPExecutions = append(res.SOPExecutions, exec)
			}
		}
	}
	st.Exit(len(res.SOPExecutions))

	st = e.enter(root, "publish")
	st.Exit(e.publish(now, &res, active))

	// The observers: a fixed set in a fixed order, each returning at once
	// when its Enable* was never called. The order is load-bearing — the
	// flood detector tags the trace before Finish seals it, and the
	// history row must see this tick's final counters, span aggregates
	// and runtime gauges. History may inject self-alerts, which enter the
	// preprocessor's pending buffer for the NEXT tick; nothing this tick
	// computed moves.
	e.observeTelemetry(time.Since(start), pending, &res, len(active))
	st = root.Enter("observe", nil)
	e.observeLifecycle(now, res.NewIncidents, active)
	e.observeFlood(now, structured, res.NewIncidents, active, act)
	st.Exit(0)
	e.spanTel.observe(act.Finish())
	e.rtm.Refresh()
	e.observeHistory(now, start)
	return res
}

// enter opens one of the engine's top-level stages under the tick's root
// scope, timed into the stage's histogram when a registry is attached.
func (e *Engine) enter(root span.Scope, name string) span.Stage {
	return root.Enter(name, e.stageHist[name])
}

// evaluate refines and (re)scores the active incidents so severity
// escalates with duration (Eq. 2's ΔT term), and returns the active set;
// the ones it re-scored are left in e.evalDirty. An incident is dirty —
// needs the full Refine+Score — when its content changed (rev), the
// reachability samples changed (gen), or the previous scoring clamped
// Eq. 2's duration at the evaluation time (now < UpdateTime), so a later
// now yields a different ΔT. Otherwise both are pure functions of
// unchanged inputs and the stored Severity/Zoomed are already exact.
func (e *Engine) evaluate(now time.Time, sc span.Scope) []*incident.Incident {
	active := e.loc.ActiveAppend(e.activeBuf[:0])
	e.activeBuf = active
	dirty := e.evalDirty[:0]
	for _, in := range active {
		st, ok := e.evalStates[in.ID]
		if !ok || st.rev != in.Rev() || st.gen != e.sampleGen || st.now.Before(in.UpdateTime) {
			dirty = append(dirty, in)
		}
	}
	e.evalDirty = dirty
	// The score's evidence is kept only for a lineage recorder to read.
	var bds []evaluator.Breakdown
	if e.prov != nil {
		if cap(e.provBds) < len(dirty) {
			e.provBds = make([]evaluator.Breakdown, len(dirty))
		}
		bds = e.provBds[:len(dirty)]
	}
	sc.Fork("refine_score", e.workers, len(dirty), func(i int) {
		in := dirty[i]
		e.refiner.Refine(in, e.samples)
		b := e.eval.Score(in, now)
		if bds != nil {
			bds[i] = b
		}
	})
	e.recordScores(now, dirty, bds)
	for _, in := range dirty {
		e.evalStates[in.ID] = evalState{rev: in.Rev(), gen: e.sampleGen, now: now, seen: e.tickCount}
	}
	if e.tickCount%evalStatePruneInterval == 0 {
		e.pruneEvalStates(active)
	}
	return active
}

// pruneEvalStates drops incremental-evaluator state for incidents no
// longer active (closed, or absorbed into a larger incident).
func (e *Engine) pruneEvalStates(active []*incident.Incident) {
	for _, in := range active {
		st := e.evalStates[in.ID]
		st.seen = e.tickCount
		e.evalStates[in.ID] = st
	}
	for id, st := range e.evalStates {
		if st.seen != e.tickCount {
			delete(e.evalStates, id)
		}
	}
}

// Active returns the open incidents, oldest first. The slice is a fresh
// copy the caller owns; the incidents themselves are shared.
func (e *Engine) Active() []*incident.Incident { return e.loc.Active() }

// ActiveCount reports the number of open incidents without copying.
func (e *Engine) ActiveCount() int { return e.loc.ActiveCount() }

// Closed returns timed-out incidents. The slice is a fresh copy the
// caller owns.
func (e *Engine) Closed() []*incident.Incident { return e.loc.Closed() }

// ClosedCount reports the number of timed-out incidents without copying.
func (e *Engine) ClosedCount() int { return e.loc.ClosedCount() }

// ClosedSince returns the incidents closed from index i on, in closing
// order: a caller that advances i by len(result) sees each closed
// incident once, without copying the whole history every tick.
func (e *Engine) ClosedSince(i int) []*incident.Incident { return e.loc.ClosedSince(i) }

// AllIncidents returns every incident the engine has produced, by ID. The
// returned slice is freshly allocated on every call — callers may sort,
// filter, or append to it without affecting the engine.
func (e *Engine) AllIncidents() []*incident.Incident {
	closed := e.loc.Closed()
	active := e.loc.Active()
	out := make([]*incident.Incident, 0, len(closed)+len(active))
	out = append(out, closed...)
	out = append(out, active...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Severe returns the active incidents clearing the severity filter,
// highest severity first — the ranked feed of §6.4.
func (e *Engine) Severe() []*incident.Incident {
	return e.eval.Filter(e.loc.Active())
}

// PreprocessStats exposes the preprocessor's volume counters.
func (e *Engine) PreprocessStats() preprocess.Stats { return e.pre.Stats() }

// RawIngested reports the number of raw alerts seen.
func (e *Engine) RawIngested() int { return e.rawIn }

// SOP exposes the SOP engine (nil when disabled).
func (e *Engine) SOP() *sop.Engine { return e.sopEng }

// Evaluator exposes the evaluator for ad-hoc scoring.
func (e *Engine) Evaluator() *evaluator.Evaluator { return e.eval }
