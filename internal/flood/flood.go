// Package flood detects and documents alert-flood episodes: the severe
// failures of §2 that bury operators under O(10^4)–O(10^5) raw alerts.
// The rest of the observability stack sees ticks, spans, and individual
// incidents; this package adds the missing first-class object — "a flood
// happened from t1 to t2, here is what it looked like" — so metrics,
// traces, provenance, and postmortem reports can all join on one key,
// the episode ID.
//
// # Detection
//
// The detector is a hysteresis state machine over two EWMAs of the raw
// ingest rate, plus an incident-churn trigger. Every threshold is stated
// per reference span (RefSpan, 10 s — one tick at the cadence it was
// calibrated at), and the detector steps once per RefSpan of alert time,
// not once per tick: ticks closer together than that only accumulate
// into the next step, so a rate is never extrapolated from one short
// tick. A step covering span s normalizes its raw count to alerts per
// RefSpan and weighs it with α_eff = 1 − (1 − α)^(s/RefSpan):
//
//   - fast (α=0.5) tracks the current rate with a ~2-span memory;
//   - slow (α=0.05) is the quiet baseline. It only absorbs steps that do
//     not qualify toward onset, so a flood cannot raise its own
//     reference level, and it re-seeds after each episode so the next
//     comparison is against the post-flood quiet.
//
// A step qualifies when fast ≥ OnsetRate AND fast ≥ OnsetFactor × the
// baseline (floored at BaselineFloor), or when the step's ticks created
// at least ChurnOnset incidents. ConfirmTicks reference spans of
// consecutive qualifying steps open an episode, backdated to the first
// step of the run; fast < ReleaseRate for HoldTicks reference spans
// closes it. Within an episode the phase advances onset → peak when the
// rate stops rising, and peak → decay once the rate drops below the
// release level; the rates are calibrated so the weakest severe scenario
// (route leaks, ~4–16 alerts per 10 s on the small topology) confirms
// while benign minor events (one 11-alert span decaying to ~1 per span)
// and background noise never do. On a 10 s tick grid every tick is one
// step of exactly RefSpan, and the arithmetic is the per-tick detector's
// bit for bit.
//
// # Determinism
//
// The state machine consumes only counts the pipeline already computes
// deterministically — raw ingested, structured emitted, incidents
// created/closed — and the alert-time instants of the ticks, never
// wall-clock latency. Episode IDs,
// boundaries, and every aggregate in a Report are therefore
// bit-identical across replays at any worker count; Fingerprint()
// asserts exactly that. Wall-clock tick latency and shed counts are
// still recorded per episode, but through ObservePerf into the Perf
// section, which the fingerprint excludes.
package flood

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"skynet/internal/alert"
	"skynet/internal/incident"
	"skynet/internal/intern"
	"skynet/internal/telemetry"
	"skynet/internal/tsdb"
)

// RefSpan is the reference span the detector's rates and durations are
// stated per, and the least alert time one detector step covers.
const RefSpan = 10 * time.Second

// Defaults for Config's zero fields, calibrated against the small
// topology's scenario suite at the 10s tick (see DESIGN.md §8).
const (
	DefaultFastAlpha     = 0.5
	DefaultSlowAlpha     = 0.05
	DefaultOnsetRate     = 5.0
	DefaultOnsetFactor   = 8.0
	DefaultConfirmTicks  = 2
	DefaultChurnOnset    = 3
	DefaultReleaseRate   = 3.0
	DefaultHoldTicks     = 6
	DefaultBaselineFloor = 0.5
	DefaultTopK          = 5
	DefaultMaxEpisodes   = 16
	DefaultTrajectoryCap = 512
	DefaultIncidentCap   = 64
)

// Config tunes the detector. The zero value applies the defaults.
type Config struct {
	// FastAlpha is the EWMA weight of the current-rate tracker.
	FastAlpha float64
	// SlowAlpha is the EWMA weight of the quiet baseline.
	SlowAlpha float64
	// OnsetRate is the minimum fast EWMA (raw alerts per RefSpan) for a
	// step to qualify toward onset.
	OnsetRate float64
	// OnsetFactor is how far above the baseline the fast EWMA must sit
	// for a tick to qualify.
	OnsetFactor float64
	// ConfirmTicks is how many RefSpans of consecutive qualifying steps
	// open an episode.
	ConfirmTicks int
	// ChurnOnset is the incident-churn trigger: a step whose ticks
	// created at least this many incidents qualifies regardless of rate.
	ChurnOnset int
	// ReleaseRate is the fast-EWMA level (per RefSpan) below which a step
	// counts toward release.
	ReleaseRate float64
	// HoldTicks is how many RefSpans of consecutive sub-release steps
	// close an episode.
	HoldTicks int
	// BaselineFloor bounds the baseline from below so the onset factor
	// stays meaningful after silent stretches.
	BaselineFloor float64
	// TopK is how many top locations a report lists.
	TopK int
	// MaxEpisodes caps retained closed-episode reports (oldest evicted).
	MaxEpisodes int
	// TrajectoryCap caps per-episode trajectory points; later steps are
	// dropped (counted in Report.TrajectoryDropped).
	TrajectoryCap int
	// IncidentCap caps per-episode incident-timeline entries; the
	// created counter keeps counting past the cap.
	IncidentCap int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.FastAlpha <= 0 || c.FastAlpha > 1 {
		c.FastAlpha = DefaultFastAlpha
	}
	if c.SlowAlpha <= 0 || c.SlowAlpha > 1 {
		c.SlowAlpha = DefaultSlowAlpha
	}
	if c.OnsetRate <= 0 {
		c.OnsetRate = DefaultOnsetRate
	}
	if c.OnsetFactor <= 0 {
		c.OnsetFactor = DefaultOnsetFactor
	}
	if c.ConfirmTicks <= 0 {
		c.ConfirmTicks = DefaultConfirmTicks
	}
	if c.ChurnOnset <= 0 {
		c.ChurnOnset = DefaultChurnOnset
	}
	if c.ReleaseRate <= 0 {
		c.ReleaseRate = DefaultReleaseRate
	}
	if c.HoldTicks <= 0 {
		c.HoldTicks = DefaultHoldTicks
	}
	if c.BaselineFloor <= 0 {
		c.BaselineFloor = DefaultBaselineFloor
	}
	if c.TopK <= 0 {
		c.TopK = DefaultTopK
	}
	if c.MaxEpisodes <= 0 {
		c.MaxEpisodes = DefaultMaxEpisodes
	}
	if c.TrajectoryCap <= 0 {
		c.TrajectoryCap = DefaultTrajectoryCap
	}
	if c.IncidentCap <= 0 {
		c.IncidentCap = DefaultIncidentCap
	}
	return c
}

// Phase is an episode's lifecycle stage.
type Phase int

// The episode lifecycle: onset (rate rising past the trigger), peak
// (rate crested), decay (rate below release, hold running), closed.
const (
	PhaseIdle Phase = iota
	PhaseOnset
	PhasePeak
	PhaseDecay
	PhaseClosed
)

var phaseNames = [...]string{"idle", "onset", "peak", "decay", "closed"}

// String returns the lowercase phase name.
func (p Phase) String() string {
	if p < 0 || int(p) >= len(phaseNames) {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// MarshalText implements encoding.TextMarshaler.
func (p Phase) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *Phase) UnmarshalText(b []byte) error {
	for i, n := range phaseNames {
		if n == string(b) {
			*p = Phase(i)
			return nil
		}
	}
	return fmt.Errorf("flood: unknown phase %q", string(b))
}

// Event is one episode lifecycle notification, emitted on open, phase
// change, and close.
type Event struct {
	// Time is the pipeline time of the step that made the transition.
	Time time.Time `json:"time"`
	// Episode is the episode ID.
	Episode uint64 `json:"episode"`
	// Phase is the phase just entered.
	Phase Phase `json:"phase"`
	// Detail describes the transition with its measured rates.
	Detail string `json:"detail"`
}

// TickOutcome tells the engine what one ObserveTick changed.
type TickOutcome struct {
	// EpisodeID is the open episode after the tick, 0 when idle.
	EpisodeID uint64
	// Opened is true when an episode was confirmed this tick.
	Opened bool
	// Adopted lists incident IDs newly attributed to the episode this
	// tick — on the opening tick it backfills incidents created during
	// the onset rise. Only a tick that closes a detector step adopts.
	Adopted []int
	// Closed is the finished report when an episode closed this tick.
	Closed *Report
	// Events are the lifecycle notifications fired this tick (also
	// delivered to the SetNotify callback).
	Events []Event
}

// cumulative is the recorder's running totals; snapshotting it when a
// qualifying run starts lets a confirmed episode's aggregates include
// the onset rise (the ticks before confirmation).
type cumulative struct {
	raw        int64
	structured int64
	bySource   []int64 // indexed by alert.Source
	byType     []int64 // indexed by intern.TypeID
	byLoc      []int64 // indexed by intern.PathID
	created    int64
	closed     int64
}

func (c *cumulative) clone() cumulative {
	cp := *c
	cp.bySource = append([]int64(nil), c.bySource...)
	cp.byType = append([]int64(nil), c.byType...)
	cp.byLoc = append([]int64(nil), c.byLoc...)
	return cp
}

// episodeMetrics are the per-episode labeled registry handles, resolved
// when an episode opens (nil when no registry is attached).
type episodeMetrics struct {
	raw        *telemetry.Counter
	structured *telemetry.Counter
	incidents  *telemetry.Counter
}

// pendingIncident is an incident created during the open step or a
// not-yet-confirmed qualifying run, adopted if the run confirms.
type pendingIncident struct {
	id   int
	root string
	at   time.Time
}

// Recorder is the flood detector plus forensics accumulator. ObserveRaw,
// ObserveTick, and ObservePerf must be called from one goroutine (the
// engine loop); every read accessor is safe from any goroutine.
type Recorder struct {
	cfg Config

	// Inter-step raw tap, engine-goroutine only: written per batch by
	// ObserveRaw without locking, drained once per detector step.
	pendingRaw int64
	pendingSrc []int64

	// mu guards everything below: the detector state and running totals
	// (written once per tick) and the episode reports (read by HTTP
	// handlers and renderers).
	mu      sync.Mutex
	paths   *intern.PathTable
	types   *intern.TypeTable
	cum     cumulative
	fast    float64
	slow    float64
	slowN   int           // steps absorbed into slow since the last re-seed
	runDur  time.Duration // alert time of consecutive qualifying steps while idle
	runSnap cumulative
	runTick uint64
	runTime time.Time
	pending []pendingIncident
	holdDur time.Duration // alert time of consecutive sub-release steps while open

	// The open step: the ticks since the last step (at stepAt), folded
	// into the detector once they span RefSpan.
	stepAt      time.Time
	stepTypes   []intern.TypeID // one per structured alert
	stepLocs    []intern.PathID
	stepCreated []pendingIncident
	stepClosed  int64

	nextID  uint64
	open    *Report
	openEM  *episodeMetrics
	closed  []*Report
	nClosed int64

	reg        *telemetry.Registry
	phaseGauge *telemetry.Gauge
	curGauge   *telemetry.Gauge
	epCounter  *telemetry.Counter

	notify  func(Event)
	history func(fromTick, toTick uint64) []HistoryCurve
}

// New builds a recorder, applying defaults for zero Config fields.
func New(cfg Config) *Recorder {
	return &Recorder{
		cfg:        cfg.withDefaults(),
		paths:      intern.NewPathTable(),
		types:      intern.NewTypeTable(),
		pendingSrc: make([]int64, len(alert.Sources())+1),
	}
}

// SetNotify installs the episode event callback (the SSE bus tap and
// report archiver). The callback runs on the ObserveTick goroutine,
// outside the recorder's lock.
func (r *Recorder) SetNotify(fn func(Event)) {
	r.mu.Lock()
	r.notify = fn
	r.mu.Unlock()
}

// SetHistory installs the history-store tap: at episode close the
// recorder calls fn with the episode's tick window and attaches the
// returned curves to the report, so postmortems carry the pipeline's
// rate and latency trajectories through the flood. The callback runs
// under the recorder's lock on the ObserveTick goroutine — it must read
// the store and nothing else (HistoryFromDB qualifies).
func (r *Recorder) SetHistory(fn func(fromTick, toTick uint64) []HistoryCurve) {
	r.mu.Lock()
	r.history = fn
	r.mu.Unlock()
}

// HistoryFromDB builds a SetHistory tap reading the named metrics from
// the tick-indexed store. Metrics the store has never seen are skipped,
// so the list can name series that only appear under load.
func HistoryFromDB(db *tsdb.DB, metrics ...string) func(fromTick, toTick uint64) []HistoryCurve {
	return func(fromTick, toTick uint64) []HistoryCurve {
		out := make([]HistoryCurve, 0, len(metrics))
		for _, m := range metrics {
			res, err := db.Query(m, fromTick, toTick, 1)
			if err != nil || len(res.Points) == 0 {
				continue
			}
			hc := HistoryCurve{
				Metric:   m,
				FromTick: res.Points[0].Tick,
				Step:     res.Step,
				Values:   make([]float64, len(res.Points)),
			}
			for i := range res.Points {
				hc.Values[i] = res.Points[i].Value
			}
			out = append(out, hc)
		}
		return out
	}
}

// RegisterMetrics exposes detector state on a registry and arms the
// per-episode labeled counters: each episode's raw/structured/incident
// totals appear as skynet_flood_episode_* series carrying an episode
// label, the join key shared with spans, provenance, and reports.
func (r *Recorder) RegisterMetrics(reg *telemetry.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reg = reg
	r.phaseGauge = reg.Gauge("skynet_flood_phase",
		"Current flood phase: 0 idle, 1 onset, 2 peak, 3 decay.")
	r.curGauge = reg.Gauge("skynet_flood_current_episode",
		"ID of the open flood episode, 0 when idle.")
	r.epCounter = reg.Counter("skynet_flood_episodes_total",
		"Flood episodes detected over the recorder's lifetime.")
	reg.GaugeFunc("skynet_flood_ingest_rate",
		"Fast EWMA of the raw ingest rate per 10 s watched by the flood detector.",
		func() float64 { r.mu.Lock(); defer r.mu.Unlock(); return r.fast })
}

// newEpisodeMetricsLocked resolves the labeled handles for one episode.
func (r *Recorder) newEpisodeMetricsLocked(id uint64) *episodeMetrics {
	if r.reg == nil {
		return nil
	}
	lbl := telemetry.Label("episode", fmt.Sprintf("%d", id))
	return &episodeMetrics{
		raw: r.reg.CounterWith("skynet_flood_episode_raw_total", lbl,
			"Raw alerts ingested during one flood episode, by episode ID."),
		structured: r.reg.CounterWith("skynet_flood_episode_structured_total", lbl,
			"Structured alerts emitted during one flood episode, by episode ID."),
		incidents: r.reg.CounterWith("skynet_flood_episode_incidents_total", lbl,
			"Incidents created during one flood episode, by episode ID."),
	}
}

// ObserveRaw taps a batch of raw alerts at ingest through its Source
// column — all the tap reads. Engine goroutine only; no locks — the
// tallies it touches are drained only by ObserveTick on the same
// goroutine, so the ingest hot path stays allocation- and
// contention-free.
func (r *Recorder) ObserveRaw(srcs []alert.Source) {
	r.pendingRaw += int64(len(srcs))
	for _, s := range srcs {
		if s < 0 || int(s) >= len(r.pendingSrc) {
			s = 0
		}
		r.pendingSrc[s]++
	}
}

// ObserveTick folds one pipeline tick into the open detector step and,
// once the step spans RefSpan of alert time (or on the first tick),
// advances the detector and the open episode (if any) by that step.
// structured is the preprocessor's output batch, created this tick's new
// incidents, active the open set after the tick, closedInc incidents
// closed this tick. now/tick must advance monotonically.
func (r *Recorder) ObserveTick(now time.Time, tick uint64, structured []alert.Alert, created, active, closedInc []*incident.Incident) TickOutcome {
	r.mu.Lock()
	out := r.observeTickLocked(now, tick, structured, created, active, closedInc)
	notify := r.notify
	r.mu.Unlock()
	if notify != nil {
		for _, ev := range out.Events {
			notify(ev)
		}
	}
	return out
}

// ewmaWeight is α restated for a step of k reference spans: the weight
// k consecutive one-span updates give their common input. One span
// keeps α itself, bit for bit.
func ewmaWeight(alpha, k float64) float64 {
	if k == 1 {
		return alpha
	}
	return 1 - math.Pow(1-alpha, k)
}

func (r *Recorder) observeTickLocked(now time.Time, tick uint64, structured []alert.Alert, created, active, closedInc []*incident.Incident) TickOutcome {
	var out TickOutcome
	for i := range structured {
		r.stepTypes = append(r.stepTypes, r.types.Intern(structured[i].Key()))
		r.stepLocs = append(r.stepLocs, r.paths.Intern(structured[i].Location))
	}
	for _, in := range created {
		r.stepCreated = append(r.stepCreated, pendingIncident{id: in.ID, root: in.Root.String(), at: now})
	}
	r.stepClosed += int64(len(closedInc))
	// The first tick steps at once, as does one earlier than the last
	// step (a replay restarted on the same recorder): both count as one
	// reference span.
	span := RefSpan
	if d := now.Sub(r.stepAt); !r.stepAt.IsZero() && d >= 0 {
		if span = d; span < RefSpan {
			if r.open != nil {
				out.EpisodeID = r.open.ID
			}
			return out
		}
	}
	r.stepAt = now
	r.stepLocked(now, tick, span, active, &out)
	r.stepTypes, r.stepLocs = r.stepTypes[:0], r.stepLocs[:0]
	r.stepCreated = r.stepCreated[:0]
	r.stepClosed = 0
	return out
}

// stepLocked advances the detector by one step of the given span,
// ending at now, over the step's accumulated counts. Caller holds mu.
func (r *Recorder) stepLocked(now time.Time, tick uint64, span time.Duration, active []*incident.Incident, out *TickOutcome) {
	raw := r.pendingRaw
	r.pendingRaw = 0
	k := float64(span) / float64(RefSpan)
	rate := float64(raw) / k // raw alerts per RefSpan

	// Judge the step against the PRE-step baseline: the slow EWMA only
	// absorbs steps that do not qualify, so a flood's own volume never
	// raises the level it is compared against.
	fastA := ewmaWeight(r.cfg.FastAlpha, k)
	r.fast = fastA*rate + (1-fastA)*r.fast
	baseline := r.slow
	if r.slowN == 0 || baseline < r.cfg.BaselineFloor {
		baseline = r.cfg.BaselineFloor
	}
	qualifies := (r.fast >= r.cfg.OnsetRate && r.fast >= r.cfg.OnsetFactor*baseline) ||
		len(r.stepCreated) >= r.cfg.ChurnOnset
	// The slow EWMA grows from zero rather than seeding with the first
	// step's count: a cold start is covered by BaselineFloor, while a
	// seed from one unlucky background burst would park the baseline in
	// the detection band for hundreds of steps at this α.
	if r.open == nil && !qualifies {
		slowA := ewmaWeight(r.cfg.SlowAlpha, k)
		r.slow = slowA*rate + (1-slowA)*r.slow
		r.slowN++
	}

	// A qualifying run starting this step backdates its ledger to the
	// totals before this step, so the onset rise counts.
	if r.open == nil && qualifies && r.runDur == 0 {
		r.runSnap = r.cum.clone()
		r.runTick = tick
		r.runTime = now
	}

	// Fold the step into the running totals.
	r.cum.raw += raw
	if r.cum.bySource == nil {
		r.cum.bySource = make([]int64, len(r.pendingSrc))
	}
	for i, n := range r.pendingSrc {
		r.cum.bySource[i] += n
		r.pendingSrc[i] = 0
	}
	r.cum.structured += int64(len(r.stepTypes))
	for _, tid := range r.stepTypes {
		for int(tid) >= len(r.cum.byType) {
			r.cum.byType = append(r.cum.byType, 0)
		}
		r.cum.byType[tid]++
	}
	for _, pid := range r.stepLocs {
		for int(pid) >= len(r.cum.byLoc) {
			r.cum.byLoc = append(r.cum.byLoc, 0)
		}
		r.cum.byLoc[pid]++
	}
	r.cum.created += int64(len(r.stepCreated))
	r.cum.closed += r.stepClosed

	if r.open == nil {
		r.advanceIdleLocked(now, tick, span, qualifies, out)
	}
	if r.open != nil {
		r.advanceOpenLocked(now, tick, span, raw, rate, active, out)
	}
	if r.open != nil {
		out.EpisodeID = r.open.ID
	}
	if r.phaseGauge != nil {
		ph, cur := PhaseIdle, uint64(0)
		if r.open != nil {
			ph, cur = r.open.Phase, r.open.ID
		}
		r.phaseGauge.SetInt(int(ph))
		r.curGauge.SetInt(int(cur))
	}
}

// advanceIdleLocked advances the pending-onset run and opens an episode
// when it confirms. Caller holds mu.
func (r *Recorder) advanceIdleLocked(now time.Time, tick uint64, span time.Duration, qualifies bool, out *TickOutcome) {
	if !qualifies {
		r.runDur = 0
		r.pending = r.pending[:0]
		return
	}
	r.runDur += span
	for _, p := range r.stepCreated {
		if len(r.pending) < r.cfg.IncidentCap {
			r.pending = append(r.pending, p)
		}
	}
	if r.runDur < time.Duration(r.cfg.ConfirmTicks)*RefSpan {
		return
	}
	r.nextID++
	rep := &Report{
		ID:        r.nextID,
		Phase:     PhaseOnset,
		StartTick: r.runTick,
		Start:     r.runTime,
		Baseline:  r.slow,
		Timeline:  []PhaseChange{{Phase: PhaseOnset, Tick: r.runTick, Time: r.runTime}},
		startSnap: r.runSnap,
	}
	for _, p := range r.pending {
		out.Adopted = append(out.Adopted, p.id)
		rep.Incidents = append(rep.Incidents, IncidentEvent{ID: p.id, Root: p.root, Created: p.at})
	}
	rep.IncidentsCreated = len(rep.Incidents)
	r.open = rep
	r.openEM = r.newEpisodeMetricsLocked(rep.ID)
	if r.epCounter != nil {
		r.epCounter.Inc()
	}
	r.pending = r.pending[:0]
	r.runDur = 0
	out.Opened = true
	out.Events = append(out.Events, Event{
		Time: now, Episode: rep.ID, Phase: PhaseOnset,
		Detail: fmt.Sprintf("flood onset: ingest %.1f/10s ≥ %.1f (baseline %.2f), confirmed over %d×10s",
			r.fast, r.cfg.OnsetRate, r.slow, r.cfg.ConfirmTicks),
	})
}

// advanceOpenLocked folds one step into the open episode and advances
// its phase machine. Caller holds mu. The step that confirms an episode
// flows through here too, so the confirm window's counts land in the
// report on the same step it opens. raw is the step's raw count, rate
// the same per RefSpan.
func (r *Recorder) advanceOpenLocked(now time.Time, tick uint64, span time.Duration, raw int64, rate float64, active []*incident.Incident, out *TickOutcome) {
	rep := r.open
	rep.EndTick = tick
	rep.RawTotal = r.cum.raw - rep.startSnap.raw
	rep.StructuredTotal = r.cum.structured - rep.startSnap.structured
	if rep.StructuredTotal > 0 {
		rep.ConsolidationRatio = float64(rep.RawTotal) / float64(rep.StructuredTotal)
	}
	if peak := int64(math.Round(rate)); peak > rep.PeakRate {
		rep.PeakRate = peak
		rep.PeakTick = tick
		rep.PeakTime = now
	}

	// Incident timeline. The opening step's backfill already put this
	// step's created incidents in Adopted; only append the ones that
	// arrived after the open.
	if !out.Opened {
		for _, p := range r.stepCreated {
			out.Adopted = append(out.Adopted, p.id)
			if len(rep.Incidents) < r.cfg.IncidentCap {
				rep.Incidents = append(rep.Incidents, IncidentEvent{ID: p.id, Root: p.root, Created: p.at})
			}
			rep.IncidentsCreated++
		}
	}
	maxSev, maxID := 0.0, 0
	for _, in := range active {
		if in.Severity > maxSev {
			maxSev, maxID = in.Severity, in.ID
		}
	}
	for i := range rep.Incidents {
		for _, in := range active {
			if rep.Incidents[i].ID == in.ID {
				rep.Incidents[i].Severity = in.Severity
			}
		}
	}
	if maxSev > rep.MaxSeverity {
		rep.MaxSeverity = maxSev
		rep.MaxSeverityIncident = maxID
	}
	if len(rep.Trajectory) < r.cfg.TrajectoryCap {
		rep.Trajectory = append(rep.Trajectory, TrajectoryPoint{
			Tick: tick, Time: now, Raw: raw, Structured: int64(len(r.stepTypes)),
			Active: len(active), NewIncidents: len(r.stepCreated), MaxSeverity: maxSev,
		})
	} else {
		rep.TrajectoryDropped++
	}
	if em := r.openEM; em != nil {
		em.raw.Add(rep.RawTotal - em.raw.Value())
		em.structured.Add(rep.StructuredTotal - em.structured.Value())
		em.incidents.Add(int64(rep.IncidentsCreated) - em.incidents.Value())
	}

	// Phase machine: onset → peak when the rate stops rising; any phase
	// → decay on a sub-release step; decay → closed after the hold, or
	// back to peak if the rate recovers.
	if r.fast < r.cfg.ReleaseRate {
		r.holdDur += span
		if rep.Phase != PhaseDecay {
			r.transitionLocked(rep, PhaseDecay, tick, now, out,
				fmt.Sprintf("rate %.1f/10s fell below release %.1f", r.fast, r.cfg.ReleaseRate))
		}
		if r.holdDur >= time.Duration(r.cfg.HoldTicks)*RefSpan {
			r.closeLocked(rep, tick, now, out)
		}
		return
	}
	r.holdDur = 0
	if rep.Phase == PhaseOnset && rate < r.fast {
		r.transitionLocked(rep, PhasePeak, tick, now, out,
			fmt.Sprintf("rate crested at %d/10s", rep.PeakRate))
	} else if rep.Phase == PhaseDecay {
		r.transitionLocked(rep, PhasePeak, tick, now, out,
			fmt.Sprintf("rate recovered to %.1f/10s above release %.1f", r.fast, r.cfg.ReleaseRate))
	}
}

// transitionLocked records a phase change. Caller holds mu; the notify
// callback fires later, outside the lock, from the queued out.Events.
func (r *Recorder) transitionLocked(rep *Report, p Phase, tick uint64, now time.Time, out *TickOutcome, detail string) {
	rep.Phase = p
	rep.Timeline = append(rep.Timeline, PhaseChange{Phase: p, Tick: tick, Time: now})
	out.Events = append(out.Events, Event{Time: now, Episode: rep.ID, Phase: p, Detail: detail})
}

// closeLocked finishes the open episode. Caller holds mu.
func (r *Recorder) closeLocked(rep *Report, tick uint64, now time.Time, out *TickOutcome) {
	rep.End = now
	rep.DurationTicks = tick - rep.StartTick + 1
	rep.RawBySource = r.sourceCountsLocked(rep)
	rep.ByType = r.typeCountsLocked(rep)
	rep.TopLocations = r.topLocationsLocked(rep)
	if r.history != nil {
		rep.History = r.history(rep.StartTick, tick)
	}
	r.transitionLocked(rep, PhaseClosed, tick, now, out,
		fmt.Sprintf("flood closed: %d raw alerts over %d ticks, peak %d/10s",
			rep.RawTotal, rep.DurationTicks, rep.PeakRate))
	r.open = nil
	r.openEM = nil
	r.holdDur = 0
	r.nClosed++
	// Re-seed the baseline from the post-flood quiet level rather than
	// carrying the pre-flood one across the episode.
	r.slowN = 0
	r.slow = 0
	r.closed = append(r.closed, rep)
	if len(r.closed) > r.cfg.MaxEpisodes {
		r.closed = append(r.closed[:0:0], r.closed[len(r.closed)-r.cfg.MaxEpisodes:]...)
	}
	cp := rep.clone()
	out.Closed = &cp
}

// sourceCountsLocked renders the episode's per-source raw deltas.
func (r *Recorder) sourceCountsLocked(rep *Report) map[string]int64 {
	out := make(map[string]int64)
	for i, n := range r.cum.bySource {
		var base int64
		if i < len(rep.startSnap.bySource) {
			base = rep.startSnap.bySource[i]
		}
		if d := n - base; d > 0 {
			out[alert.Source(i).String()] = d
		}
	}
	return out
}

// typeCountsLocked renders the episode's per-FT-type structured deltas.
func (r *Recorder) typeCountsLocked(rep *Report) map[string]int64 {
	out := make(map[string]int64)
	for i, n := range r.cum.byType {
		var base int64
		if i < len(rep.startSnap.byType) {
			base = rep.startSnap.byType[i]
		}
		if d := n - base; d > 0 {
			out[r.types.Key(intern.TypeID(i)).String()] = d
		}
	}
	return out
}

// topLocationsLocked ranks the episode's busiest interned locations,
// ties broken by interning order (first-seen) for determinism.
func (r *Recorder) topLocationsLocked(rep *Report) []LocationCount {
	var all []LocationCount
	for i, n := range r.cum.byLoc {
		var base int64
		if i < len(rep.startSnap.byLoc) {
			base = rep.startSnap.byLoc[i]
		}
		if d := n - base; d > 0 {
			all = append(all, LocationCount{
				Path:  r.paths.Path(intern.PathID(i)).String(),
				Count: d,
				id:    int32(i),
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].id < all[j].id
	})
	if len(all) > r.cfg.TopK {
		all = all[:r.cfg.TopK]
	}
	return all
}

// ObservePerf folds one tick's wall-clock latency and the cumulative
// shed count into the open episode's Perf section. Separate from
// ObserveTick because these inputs are wall-clock — nondeterministic —
// and must stay out of the deterministic aggregates; Fingerprint
// excludes everything recorded here. No-op while idle.
func (r *Recorder) ObservePerf(tickLatency time.Duration, shedTotal int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := r.open
	if rep == nil {
		return
	}
	p := &rep.Perf
	if p.Ticks == 0 {
		p.MinTick = tickLatency
		p.shedStart = shedTotal
	}
	p.Ticks++
	p.SumTick += tickLatency
	if tickLatency < p.MinTick {
		p.MinTick = tickLatency
	}
	if tickLatency > p.MaxTick {
		p.MaxTick = tickLatency
	}
	p.Shed = shedTotal - p.shedStart
}

// CurrentID returns the open episode's ID, 0 when idle.
func (r *Recorder) CurrentID() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.open == nil {
		return 0
	}
	return r.open.ID
}

// CurrentPhase returns the open episode's phase, PhaseIdle when none.
func (r *Recorder) CurrentPhase() Phase {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.open == nil {
		return PhaseIdle
	}
	return r.open.Phase
}

// ClosedCount reports episodes closed over the recorder's lifetime —
// the flight recorder's flood_close trigger tap.
func (r *Recorder) ClosedCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nClosed
}

// Episodes returns every retained episode report, oldest first, the
// open one (if any) last. Reports are deep copies the caller owns; the
// open episode's derived sections (per-source, per-type, top locations)
// are materialized so mid-flood reads see consistent data.
func (r *Recorder) Episodes() []Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Report, 0, len(r.closed)+1)
	for _, rep := range r.closed {
		out = append(out, rep.clone())
	}
	if r.open != nil {
		cp := r.open.clone()
		cp.RawBySource = r.sourceCountsLocked(r.open)
		cp.ByType = r.typeCountsLocked(r.open)
		cp.TopLocations = r.topLocationsLocked(r.open)
		out = append(out, cp)
	}
	return out
}

// Report returns one episode's report by ID.
func (r *Recorder) Report(id uint64) (Report, bool) {
	for _, rep := range r.Episodes() {
		if rep.ID == id {
			return rep, true
		}
	}
	return Report{}, false
}
