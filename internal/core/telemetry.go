package core

import (
	"fmt"
	"time"

	"skynet/internal/hierarchy"
	"skynet/internal/incident"
	"skynet/internal/locator"
	"skynet/internal/preprocess"
	"skynet/internal/telemetry"
)

// journalSeverityDelta is how far an incident's severity must move before
// a "scored" event is journaled. Severity grows every tick through the
// ΔT term of Eq. 2, so journaling every change would flood the ring.
const journalSeverityDelta = 1.0

// stages are the engine's top-level stages, in tick order, each with the
// help text of its latency histogram. A stage is entered through the
// seam under its name, which is also its span's name and the middle of
// its histogram's: skynet_stage_<name>_seconds.
var stages = [...]struct{ name, help string }{
	{"preprocess", "Wall time of the preprocessor flush stage (§4.1)."},
	{"locate", "Wall time of locator add/check (Algorithms 1-3)."},
	{"evaluate", "Wall time of zoom-in refine plus severity scoring (Eq. 1-3)."},
	{"sop", "Wall time of the automatic-SOP stage (§5.1)."},
	{"publish", "Wall time of building this tick's feed delta (and snapshot) and handing them to the serving hub."},
}

// pipelineMetrics holds the engine's pre-resolved metric handles so the
// hot path never touches the registry's lock.
type pipelineMetrics struct {
	rawIngested      *telemetry.Counter
	structured       *telemetry.Counter
	ticks            *telemetry.Counter
	incidentsCreated *telemetry.Counter
	sopExecutions    *telemetry.Counter

	tickSeconds *telemetry.Histogram

	activeIncidents *telemetry.Gauge
	closedIncidents *telemetry.Gauge
	structuredLast  *telemetry.Gauge

	// Incremental-evaluator and shard telemetry (PR: sharded pipeline).
	evalRescored *telemetry.Counter
	evalSkipped  *telemetry.Counter
	workers      *telemetry.Gauge
	prePending   *telemetry.Gauge

	// Per-shard gauges, indexed by shard; set serially at the end of
	// Tick so scrapes never race the worker goroutines.
	preShardAggs   []*telemetry.Gauge
	preShardRouted []*telemetry.Gauge
	locShardNodes  []*telemetry.Gauge
}

func newPipelineMetrics(reg *telemetry.Registry) *pipelineMetrics {
	return &pipelineMetrics{
		rawIngested: reg.Counter("skynet_raw_alerts_total",
			"Raw alerts ingested into the preprocessor."),
		structured: reg.Counter("skynet_structured_alerts_total",
			"Structured alerts emitted by the preprocessor into the locator."),
		ticks: reg.Counter("skynet_ticks_total",
			"Pipeline ticks executed."),
		incidentsCreated: reg.Counter("skynet_incidents_created_total",
			"Incident trees generated (Algorithm 2)."),
		sopExecutions: reg.Counter("skynet_sop_executions_total",
			"Automatic SOP mitigations applied."),
		tickSeconds: reg.Histogram("skynet_tick_seconds",
			"Wall time of one pipeline tick, start to frame published; the observers run after it.",
			telemetry.LatencyBuckets()),
		activeIncidents: reg.Gauge("skynet_active_incidents",
			"Currently open incidents."),
		closedIncidents: reg.Gauge("skynet_closed_incidents",
			"Incidents closed over the engine's lifetime."),
		structuredLast: reg.Gauge("skynet_structured_last_tick",
			"Structured alerts produced by the most recent tick."),
		evalRescored: reg.Counter("skynet_eval_rescored_total",
			"Incidents re-refined and re-scored (dirty inputs)."),
		evalSkipped: reg.Counter("skynet_eval_skipped_total",
			"Incidents whose Refine+Score was skipped (inputs unchanged)."),
		workers: reg.Gauge("skynet_pipeline_workers",
			"Resolved worker fan-out of the parallel pipeline stages."),
		prePending: reg.Gauge("skynet_preprocess_pending_depth",
			"Raw alerts queued for the preprocessor at the start of the last tick."),
	}
}

// initShardMetrics registers the per-shard gauges once the shard counts
// are known (they depend on the resolved worker setting).
func (m *pipelineMetrics) initShardMetrics(reg *telemetry.Registry, preShards, locShards int) {
	m.preShardAggs = make([]*telemetry.Gauge, preShards)
	m.preShardRouted = make([]*telemetry.Gauge, preShards)
	for i := range m.preShardAggs {
		m.preShardAggs[i] = reg.Gauge(
			fmt.Sprintf("skynet_preprocess_shard_%d_aggregates", i),
			"Live aggregation groups owned by one preprocessor shard.")
		m.preShardRouted[i] = reg.Gauge(
			fmt.Sprintf("skynet_preprocess_shard_%d_routed", i),
			"Alerts routed to one preprocessor shard during the last tick.")
	}
	m.locShardNodes = make([]*telemetry.Gauge, locShards)
	for i := range m.locShardNodes {
		m.locShardNodes[i] = reg.Gauge(
			fmt.Sprintf("skynet_locator_shard_%d_nodes", i),
			"Live main-alert-tree nodes owned by one locator shard.")
	}
}

// observeShards publishes the per-shard occupancy gauges. Called serially
// at the end of Tick, after every parallel phase has joined.
func (m *pipelineMetrics) observeShards(pre *preprocess.Preprocessor, loc *locator.Locator) {
	for i, g := range m.preShardAggs {
		g.SetInt(pre.ShardAggregates(i))
	}
	for i, g := range m.preShardRouted {
		g.SetInt(pre.ShardRouted(i))
	}
	for i, g := range m.locShardNodes {
		g.SetInt(loc.ShardNodes(i))
	}
}

// observeTelemetry publishes the tick's counters and gauges; dur is the
// tick's wall time up to and including publish. First of the observers.
func (e *Engine) observeTelemetry(dur time.Duration, pending int, res *TickResult, active int) {
	tel := e.tel
	if tel == nil {
		return
	}
	tel.tickSeconds.Observe(dur.Seconds())
	tel.ticks.Inc()
	tel.prePending.SetInt(pending)
	tel.structured.Add(int64(res.Structured))
	tel.structuredLast.SetInt(res.Structured)
	tel.incidentsCreated.Add(int64(len(res.NewIncidents)))
	tel.sopExecutions.Add(int64(len(res.SOPExecutions)))
	tel.evalRescored.Add(int64(len(e.evalDirty)))
	tel.evalSkipped.Add(int64(active - len(e.evalDirty)))
	tel.activeIncidents.SetInt(e.loc.ActiveCount())
	tel.closedIncidents.SetInt(e.loc.ClosedCount())
	tel.observeShards(e.pre, e.loc)
}

// incidentState is the journal differ's last-known view of one incident.
type incidentState struct {
	alerts   int
	severity float64
	zoomed   hierarchy.Path
	updated  time.Time
}

// EnableTelemetry attaches a metrics registry and/or a lifecycle journal
// to the engine. Either argument may be nil. Call before the first Tick;
// with neither attached a tick reads the clock once and touches no
// atomics.
func (e *Engine) EnableTelemetry(reg *telemetry.Registry, j *telemetry.Journal) {
	if reg != nil {
		e.reg = reg
		e.tel = newPipelineMetrics(reg)
		e.stageHist = make(map[string]*telemetry.Histogram, len(stages))
		for _, st := range stages {
			e.stageHist[st.name] = reg.Histogram("skynet_stage_"+st.name+"_seconds", st.help, telemetry.LatencyBuckets())
		}
		e.tel.workers.SetInt(e.workers)
		e.tel.initShardMetrics(reg, e.pre.Workers(), e.loc.Workers())
		e.bridgeSpans()
	}
	if j != nil {
		e.journal = j
		e.lastState = make(map[int]incidentState)
		e.journalNew = make(map[int]struct{})
	}
}

// Journal returns the attached lifecycle journal (nil when disabled).
func (e *Engine) Journal() *telemetry.Journal { return e.journal }

// snapshotState captures the differ's view of an incident.
func snapshotState(in *incident.Incident) incidentState {
	return incidentState{
		alerts:   in.AlertCount(),
		severity: in.Severity,
		zoomed:   in.Zoomed,
		updated:  in.UpdateTime,
	}
}

func lifecycleEvent(now time.Time, typ telemetry.EventType, in *incident.Incident, st incidentState) telemetry.Event {
	ev := telemetry.Event{
		Time:      now,
		Type:      typ,
		Incident:  in.ID,
		Root:      in.Root.String(),
		Severity:  st.severity,
		Alerts:    st.alerts,
		Locations: in.LocationCount(),
	}
	if !st.zoomed.IsRoot() && st.zoomed != in.Root {
		ev.Zoomed = st.zoomed.String()
	}
	return ev
}

// observeLifecycle diffs the incident population against the last tick
// and appends created/updated/zoomed/scored/closed events to the journal.
// created is this tick's new incidents; active is the current open set.
// Per active incident and tick it compares four fields and allocates
// nothing; strings are rendered only for an event that is appended.
func (e *Engine) observeLifecycle(now time.Time, created, active []*incident.Incident) {
	if e.journal == nil {
		return
	}
	isNew := e.journalNew
	clear(isNew)
	for _, in := range created {
		isNew[in.ID] = struct{}{}
		st := snapshotState(in)
		e.journal.Append(lifecycleEvent(now, telemetry.EventCreated, in, st))
		e.lastState[in.ID] = st
		// Incidents absorbed into this one (Algorithm 2, lines 7-9) left
		// the active set without closing; their history continues here.
		for _, id := range in.MergedFrom {
			delete(e.lastState, id)
		}
	}
	for _, in := range active {
		if _, ok := isNew[in.ID]; ok {
			continue
		}
		prev, known := e.lastState[in.ID]
		st := snapshotState(in)
		if !known {
			// Engine attached mid-flight: adopt without fabricating a
			// created event at the wrong time.
			e.lastState[in.ID] = st
			continue
		}
		if st.zoomed != prev.zoomed {
			e.journal.Append(lifecycleEvent(now, telemetry.EventZoomed, in, st))
		}
		if diff := st.severity - prev.severity; diff >= journalSeverityDelta || diff <= -journalSeverityDelta {
			e.journal.Append(lifecycleEvent(now, telemetry.EventScored, in, st))
		} else if st.alerts != prev.alerts || !st.updated.Equal(prev.updated) {
			e.journal.Append(lifecycleEvent(now, telemetry.EventUpdated, in, st))
		}
		if st != prev {
			e.lastState[in.ID] = st
		}
	}
	for _, in := range e.loc.ClosedSince(e.closedSeen) {
		st := snapshotState(in)
		e.journal.Append(lifecycleEvent(now, telemetry.EventClosed, in, st))
		delete(e.lastState, in.ID)
	}
	e.closedSeen = e.loc.ClosedCount()
}
