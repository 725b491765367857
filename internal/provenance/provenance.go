// Package provenance records the lineage of every raw alert through
// SkyNet's compression funnel — ingest, §4.1 consolidation, §4.2 incident
// generation, §4.3 scoring — so operators can audit why an incident fired
// and where any given alert went.
//
// The recorder tracks two kinds of state with very different costs:
//
//   - Conservation counters: every ingested alert resolves into exactly
//     one terminal bucket — consolidated (absorbed into an aggregate that
//     had already claimed the stream's head), filtered (dropped by a §4.1
//     rule), expired (reached the main alert tree but aged out before any
//     incident claimed it), or attributed (landed in an incident). These
//     are unconditional, atomic, and cheap; ingested must always equal
//     the sum of the terminals plus the in-flight gauge, which the
//     conservation property test drives to exact equality at quiescence.
//
//   - Lineage detail: a ring-buffered, sampled record per raw alert (the
//     matched FT-tree template, the consolidation decision, the incident
//     it fed) plus a bounded per-incident record of the trigger rule,
//     component, and score breakdown. Detail is for explanation, not
//     accounting; sampling and eviction never touch the counters.
//
// Thread model: the recorder is owned by the engine goroutine. Pipeline
// stages only call it from their serial sections (the parallel phases
// stage resolutions in single-owner scratch and merge serially), so no
// internal locking is needed except the atomic counters, which /metrics
// scrapes read without the engine lock.
package provenance

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
	"skynet/internal/telemetry"
)

// State is where a lineage currently stands in the funnel.
type State uint8

const (
	// StatePending: ingested, not yet resolved to a terminal bucket.
	StatePending State = iota
	// StateConsolidated: absorbed into an existing aggregate (§4.1 rule 1);
	// the aggregate's head lineage carries the stream forward.
	StateConsolidated
	// StateFiltered: dropped by a preprocessor rule; see FilterReason.
	StateFiltered
	// StateExpired: emitted into the main alert tree but aged out past
	// NodeTTL before any incident claimed it (Algorithm 3).
	StateExpired
	// StateAttributed: reached an incident tree, either by feeding an
	// active incident or by being swept into a newly generated one.
	StateAttributed
)

// String returns the JSON/metric name of the state.
func (s State) String() string {
	switch s {
	case StateConsolidated:
		return "consolidated"
	case StateFiltered:
		return "filtered"
	case StateExpired:
		return "expired"
	case StateAttributed:
		return "attributed"
	default:
		return "pending"
	}
}

// MarshalText renders states as their names in JSON documents.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name, so explain documents round-trip.
func (s *State) UnmarshalText(b []byte) error {
	for c := StatePending; c <= StateAttributed; c++ {
		if c.String() == string(b) {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("provenance: unknown state %q", b)
}

// FilterReason says which §4.1 rule dropped a filtered lineage.
type FilterReason uint8

const (
	// FilterUnclassified: a syslog line matching no FT-tree template.
	FilterUnclassified FilterReason = iota
	// FilterSporadic: low-rate packet loss that never persisted.
	FilterSporadic
	// FilterRelated: a traffic surge adjacent to an already-known surge.
	FilterRelated
	// FilterUncorroborated: a traffic drop with no cross-source evidence.
	FilterUncorroborated
	// FilterStale: an aggregate that aged out before passing any filter
	// (e.g. sporadic loss whose value later rose, drained leftovers).
	FilterStale

	numFilterReasons
)

// String returns the JSON/metric name of the reason.
func (r FilterReason) String() string {
	switch r {
	case FilterUnclassified:
		return "unclassified"
	case FilterSporadic:
		return "sporadic"
	case FilterRelated:
		return "related_surge"
	case FilterUncorroborated:
		return "uncorroborated"
	default:
		return "stale"
	}
}

// MarshalText renders reasons as their names in JSON documents.
func (r FilterReason) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText parses a reason name, so explain documents round-trip.
func (r *FilterReason) UnmarshalText(b []byte) error {
	for c := FilterUnclassified; c < numFilterReasons; c++ {
		if c.String() == string(b) {
			*r = c
			return nil
		}
	}
	return fmt.Errorf("provenance: unknown filter reason %q", b)
}

// Config tunes the recorder's bounds.
type Config struct {
	// SampleEvery keeps detailed lineage records for one in N ingested
	// alerts (1 records everything; 0 means the default). Conservation
	// counters are exact regardless.
	SampleEvery int
	// RingCap bounds the sampled lineage detail ring (0 = default).
	RingCap int
	// IncidentCap bounds retained per-incident records; closed incidents
	// are evicted oldest-first past the cap (0 = default).
	IncidentCap int
	// LineagesPerIncident bounds the sampled lineage IDs kept on one
	// incident record (0 = default); overflow is counted, not stored.
	LineagesPerIncident int
}

// Defaults for Config zero fields.
const (
	DefaultSampleEvery         = 16
	DefaultRingCap             = 8192
	DefaultIncidentCap         = 1024
	DefaultLineagesPerIncident = 256
)

// LineageRecord is the sampled detail for one ingested raw alert.
type LineageRecord struct {
	// Lineage is the stable ID assigned at ingest, 1-based and strictly
	// increasing in ingest order.
	Lineage uint64 `json:"lineage"`
	// Split marks the mirrored half of a link-alert split (§4.1); splits
	// are ingested (and conserved) as their own lineage.
	Split bool `json:"split,omitempty"`

	Source string `json:"source"`
	Type   string `json:"type,omitempty"`
	// Location is stored as the structured path (no string is built on
	// the ingest hot path); it marshals as the usual "RG|CT|…" form.
	Location hierarchy.Path `json:"location"`
	Time     time.Time      `json:"time"`

	// Template is the FT-tree template (the classified type) that matched
	// a raw syslog line, recorded after phase-A classification.
	Template string `json:"template,omitempty"`

	State State `json:"state"`
	// Reason is set when State is StateFiltered.
	Reason FilterReason `json:"reason,omitempty"`
	// MergedInto is the head lineage of the aggregate that absorbed this
	// alert when State is StateConsolidated (0 when the head itself was
	// not sampled or predates the recorder).
	MergedInto uint64 `json:"merged_into,omitempty"`
	// StructuredID is the emitted structured alert's ID when this lineage
	// was the head of an emitted aggregate.
	StructuredID uint64 `json:"structured_id,omitempty"`
	// Incident is the incident the lineage fed when State is
	// StateAttributed.
	Incident int `json:"incident,omitempty"`
}

// ScoreRecord is the §4.3 evidence behind one severity number: every
// Table 3 symbol feeding Equations 1–3.
type ScoreRecord struct {
	At     time.Time `json:"at"`
	Zoomed string    `json:"zoomed,omitempty"`

	Severity   float64 `json:"severity"`
	Impact     float64 `json:"impact"`
	TimeFactor float64 `json:"time_factor"`

	// Eq. 2 inputs.
	R                  float64 `json:"r"`
	L                  float64 `json:"l"`
	DurationUnits      float64 `json:"duration_units"`
	ImportantCustomers int     `json:"important_customers"`
	Sigmoid            float64 `json:"sigmoid"`
	TimeArg            float64 `json:"time_arg"`

	// Eq. 1 per-circuit-set terms, serialized from the evaluator's
	// Breakdown (Name, BreakRatio d_i, SLAOverRatio l_i, Importance g_i,
	// Customers u_i, Contribution).
	Circuits []CircuitTerm `json:"circuits,omitempty"`
}

// CircuitTerm is one Eq. 1 term, mirrored from evaluator.CircuitImpact so
// the provenance layer has a JSON-tagged, dependency-free shape.
type CircuitTerm struct {
	Name         string  `json:"name"`
	BreakRatio   float64 `json:"break_ratio"`
	SLAOverRatio float64 `json:"sla_over_ratio"`
	Importance   float64 `json:"importance"`
	Customers    int     `json:"customers"`
	Contribution float64 `json:"contribution"`
}

// IncidentInfo is what the locator knows at incident-generation time.
type IncidentInfo struct {
	ID   int
	Root string
	At   time.Time
	// Rule is the human-readable threshold clause that fired (Figure 9:
	// failure-only, combo, or any).
	Rule string
	// Thresholds is the full A/B+C/D setting in force.
	Thresholds   string
	FailureTypes int
	AllTypes     int
	// Component is the connected alerting area (truncated to the record
	// bound); ComponentSize is its true size.
	Component     []string
	ComponentSize int
	MergedFrom    []int
}

// IncidentRecord is the bounded provenance of one incident: why it
// fired, what fed it, and the evidence behind its latest score.
type IncidentRecord struct {
	ID            int       `json:"id"`
	Root          string    `json:"root"`
	CreatedAt     time.Time `json:"created_at"`
	Rule          string    `json:"rule"`
	Thresholds    string    `json:"thresholds"`
	FailureTypes  int       `json:"failure_types"`
	AllTypes      int       `json:"all_types"`
	Component     []string  `json:"component,omitempty"`
	ComponentSize int       `json:"component_size"`
	MergedFrom    []int     `json:"merged_from,omitempty"`
	ClosedAt      time.Time `json:"closed_at,omitempty"`
	// Episode is the flood episode the incident was attributed to, 0
	// when it was created outside any detected flood — the join key
	// shared with metric labels, span ring entries, and flood reports.
	Episode uint64 `json:"episode,omitempty"`

	// Attributed counts every lineage resolved to this incident; Samples
	// holds copies of the sampled subset's detail records (copied at
	// attribution time so ring eviction cannot lose them), capped at
	// LineagesPerIncident.
	Attributed int64           `json:"attributed"`
	Samples    []LineageRecord `json:"lineage_samples,omitempty"`
	// Overflow counts sampled lineages dropped past the cap.
	Overflow int `json:"sampled_overflow,omitempty"`

	Score *ScoreRecord `json:"score,omitempty"`
}

// Counters is an atomic snapshot of the conservation ledger.
type Counters struct {
	Ingested     int64 `json:"ingested"`
	Split        int64 `json:"split"`
	Consolidated int64 `json:"consolidated"`
	Filtered     int64 `json:"filtered"`
	Expired      int64 `json:"expired"`
	Attributed   int64 `json:"attributed"`
	// ByReason breaks Filtered down per §4.1 rule; entries sum to
	// Filtered. Indexed by FilterReason.
	ByReason [numFilterReasons]int64 `json:"-"`
}

// Terminal is Consolidated+Filtered+Expired+Attributed — everything that
// has left the funnel. Conservation demands Ingested == Terminal once the
// pipeline is quiescent.
func (c Counters) Terminal() int64 {
	return c.Consolidated + c.Filtered + c.Expired + c.Attributed
}

// Recorder is the lineage recorder. One per engine; see the package
// comment for the thread model.
type Recorder struct {
	cfg Config

	// Conservation ledger (atomic: scraped without the engine lock).
	ingested     atomic.Int64
	split        atomic.Int64
	consolidated atomic.Int64
	filtered     atomic.Int64
	expired      atomic.Int64
	attributed   atomic.Int64
	byReason     [numFilterReasons]atomic.Int64

	nextLineage uint64

	// emitted maps a structured alert's ID to the head lineage it carries,
	// for the one hop between preprocessor emission and locator insertion.
	// Cleared at the start of every preprocessor Tick.
	emitted map[uint64]uint64

	// ring holds the sampled lineage detail, direct-mapped: sampled
	// lineage IDs are the arithmetic sequence SampleEvery·k, so slot
	// (lid/SampleEvery) mod RingCap is collision-free over any RingCap
	// consecutive samples and needs no index map. A slot whose stored
	// Lineage differs from the probe was evicted by a newer sample.
	ring []LineageRecord

	// incidents holds bounded per-incident records; order tracks
	// insertion for oldest-closed-first eviction.
	incidents map[int]*IncidentRecord
	order     []int

	// Hot-path fast paths, precomputed in New: when SampleEvery and
	// RingCap are powers of two (the defaults are) the per-alert
	// sample/slot math is a mask and shift instead of div/mod.
	sampleMask  uint64 // SampleEvery-1, or 0 when not a power of two
	sampleShift uint   // log2(SampleEvery) when sampleMask is set
	slotMask    uint64 // RingCap-1, or 0 when not a power of two
}

// New builds a recorder, applying defaults for zero Config fields.
func New(cfg Config) *Recorder {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	if cfg.RingCap <= 0 {
		cfg.RingCap = DefaultRingCap
	}
	if cfg.IncidentCap <= 0 {
		cfg.IncidentCap = DefaultIncidentCap
	}
	if cfg.LineagesPerIncident <= 0 {
		cfg.LineagesPerIncident = DefaultLineagesPerIncident
	}
	r := &Recorder{
		cfg:       cfg,
		emitted:   make(map[uint64]uint64),
		ring:      make([]LineageRecord, cfg.RingCap),
		incidents: make(map[int]*IncidentRecord),
	}
	if se := uint64(cfg.SampleEvery); se&(se-1) == 0 {
		r.sampleMask = se - 1
		for se > 1 {
			se >>= 1
			r.sampleShift++
		}
	}
	if rc := uint64(cfg.RingCap); rc&(rc-1) == 0 {
		r.slotMask = rc - 1
	}
	return r
}

// SampleEvery reports the effective sampling rate.
func (r *Recorder) SampleEvery() int { return r.cfg.SampleEvery }

// sampled reports whether a lineage keeps ring detail. The decision is a
// pure function of the lineage ID, which is assigned serially in ingest
// order — so the sampled set is identical at every worker count.
func (r *Recorder) sampled(lid uint64) bool {
	if r.cfg.SampleEvery <= 1 {
		return true
	}
	if r.sampleMask != 0 {
		return lid&r.sampleMask == 0
	}
	return lid%uint64(r.cfg.SampleEvery) == 0
}

// slot is the direct-mapped ring position of a sampled lineage.
func (r *Recorder) slot(lid uint64) int {
	var idx uint64
	if r.sampleMask != 0 || r.cfg.SampleEvery <= 1 {
		idx = lid >> r.sampleShift
	} else {
		idx = lid / uint64(r.cfg.SampleEvery)
	}
	if r.slotMask != 0 {
		return int(idx & r.slotMask)
	}
	return int(idx % uint64(len(r.ring)))
}

// record returns the ring slot of a sampled lineage, or nil when the
// lineage was unsampled or its slot has been overwritten.
func (r *Recorder) record(lid uint64) *LineageRecord {
	if lid == 0 || !r.sampled(lid) {
		return nil
	}
	rec := &r.ring[r.slot(lid)]
	if rec.Lineage != lid {
		return nil
	}
	return rec
}

// IngestRange assigns the next lineage IDs, in row order, to rows
// [lo, hi) of b as they enter the preprocessor and appends them to lids.
// split marks the rows as mirrored halves of a link-alert split. The
// ledger moves once for the range; only sampled rows write ring detail.
// A nil recorder assigns nothing and returns lids unchanged.
func (r *Recorder) IngestRange(lids []uint64, b *alert.Batch, lo, hi int, split bool) []uint64 {
	if r == nil || lo >= hi {
		return lids
	}
	r.ingested.Add(int64(hi - lo))
	if split {
		r.split.Add(int64(hi - lo))
	}
	for i := lo; i < hi; i++ {
		r.nextLineage++
		lid := r.nextLineage
		lids = append(lids, lid)
		if !r.sampled(lid) {
			continue
		}
		// Direct-mapped write; the previous occupant (the sample RingCap
		// generations older) is evicted by overwrite.
		r.ring[r.slot(lid)] = LineageRecord{
			Lineage:  lid,
			Split:    split,
			Source:   b.Source[i].String(),
			Type:     b.Type[i],
			Location: b.Location[i],
			Time:     b.Time[i],
			State:    StatePending,
		}
	}
	return lids
}

// Ingest is IngestRange for one alert outside a batch.
func (r *Recorder) Ingest(a *alert.Alert, split bool) uint64 {
	var b alert.Batch
	b.Append(a)
	return r.IngestRange(nil, &b, 0, 1, split)[0]
}

// SetTemplate records the FT-tree template (classified type) that matched
// a sampled syslog lineage.
func (r *Recorder) SetTemplate(lid uint64, template string) {
	if rec := r.record(lid); rec != nil {
		rec.Template = template
		if rec.Type == "" {
			rec.Type = template
		}
	}
}

// Consolidated resolves a lineage absorbed into an existing aggregate;
// head is the aggregate's head lineage (may be 0).
func (r *Recorder) Consolidated(lid, head uint64) {
	r.consolidated.Add(1)
	if rec := r.record(lid); rec != nil {
		rec.State = StateConsolidated
		rec.MergedInto = head
	}
}

// Pair stages one consolidation resolution: Lid was absorbed into the
// aggregate whose head lineage is Head.
type Pair struct{ Lid, Head uint64 }

// ConsolidatedAll resolves a batch of absorbed lineages with a single
// ledger update — the preprocessor's per-shard flush calls this once per
// tick instead of hitting the atomic counter per alert.
func (r *Recorder) ConsolidatedAll(pairs []Pair) {
	r.consolidated.Add(int64(len(pairs)))
	for _, p := range pairs {
		if rec := r.record(p.Lid); rec != nil {
			rec.State = StateConsolidated
			rec.MergedInto = p.Head
		}
	}
}

// Filtered resolves a lineage dropped by a §4.1 rule.
func (r *Recorder) Filtered(lid uint64, reason FilterReason) {
	r.filtered.Add(1)
	r.byReason[reason].Add(1)
	if rec := r.record(lid); rec != nil {
		rec.State = StateFiltered
		rec.Reason = reason
	}
}

// Expired resolves a lineage whose main-tree stream aged out past NodeTTL
// without joining any incident.
func (r *Recorder) Expired(lid uint64) {
	r.expired.Add(1)
	if rec := r.record(lid); rec != nil {
		rec.State = StateExpired
	}
}

// Attributed resolves a lineage into an incident tree.
func (r *Recorder) Attributed(lid uint64, incidentID int) {
	r.attributed.Add(1)
	in := r.incidents[incidentID]
	if in != nil {
		in.Attributed++
	}
	rec := r.record(lid)
	if rec != nil {
		rec.State = StateAttributed
		rec.Incident = incidentID
	}
	if in == nil || rec == nil {
		return
	}
	if len(in.Samples) < r.cfg.LineagesPerIncident {
		in.Samples = append(in.Samples, *rec)
	} else {
		in.Overflow++
	}
}

// BeginEmitWindow opens a fresh emission window: structured-ID→lineage
// handoffs from the previous tick are gone (their streams were either
// consumed by the locator or never left the preprocessor).
func (r *Recorder) BeginEmitWindow() {
	if len(r.emitted) > 0 {
		clear(r.emitted)
	}
}

// Emitted records that structured alert structID carries head lineage
// lid out of the preprocessor.
func (r *Recorder) Emitted(structID, lid uint64) {
	r.emitted[structID] = lid
	if rec := r.record(lid); rec != nil {
		rec.StructuredID = structID
	}
}

// TakeEmitted claims the lineage carried by a structured alert, zeroing
// it so the handoff happens exactly once.
func (r *Recorder) TakeEmitted(structID uint64) uint64 {
	lid, ok := r.emitted[structID]
	if !ok {
		return 0
	}
	delete(r.emitted, structID)
	return lid
}

// IncidentCreated opens a provenance record for a newly generated
// incident, evicting the oldest closed record past the cap.
func (r *Recorder) IncidentCreated(info IncidentInfo) {
	rec := &IncidentRecord{
		ID:            info.ID,
		Root:          info.Root,
		CreatedAt:     info.At,
		Rule:          info.Rule,
		Thresholds:    info.Thresholds,
		FailureTypes:  info.FailureTypes,
		AllTypes:      info.AllTypes,
		Component:     info.Component,
		ComponentSize: info.ComponentSize,
		MergedFrom:    info.MergedFrom,
	}
	r.incidents[info.ID] = rec
	r.order = append(r.order, info.ID)
	if len(r.incidents) <= r.cfg.IncidentCap {
		return
	}
	for i, id := range r.order {
		in, ok := r.incidents[id]
		if !ok {
			continue
		}
		if !in.ClosedAt.IsZero() {
			delete(r.incidents, id)
			r.order = append(r.order[:i:i], r.order[i+1:]...)
			return
		}
	}
}

// SetEpisode attributes an incident to a flood episode.
func (r *Recorder) SetEpisode(id int, episode uint64) {
	if in, ok := r.incidents[id]; ok {
		in.Episode = episode
	}
}

// IncidentClosed stamps the close time on an incident's record.
func (r *Recorder) IncidentClosed(id int, at time.Time) {
	if in, ok := r.incidents[id]; ok {
		in.ClosedAt = at
	}
}

// RecordScore stores the latest §4.3 evidence on an incident's record.
func (r *Recorder) RecordScore(id int, s *ScoreRecord) {
	if in, ok := r.incidents[id]; ok {
		in.Score = s
	}
}

// Incident returns a copy of one incident's provenance record.
func (r *Recorder) Incident(id int) (IncidentRecord, bool) {
	in, ok := r.incidents[id]
	if !ok {
		return IncidentRecord{}, false
	}
	cp := *in
	cp.Samples = append([]LineageRecord(nil), in.Samples...)
	sort.Slice(cp.Samples, func(i, j int) bool { return cp.Samples[i].Lineage < cp.Samples[j].Lineage })
	return cp, true
}

// Lineage returns a copy of one sampled lineage's ring record.
func (r *Recorder) Lineage(lid uint64) (LineageRecord, bool) {
	rec := r.record(lid)
	if rec == nil {
		return LineageRecord{}, false
	}
	return *rec, true
}

// Counters snapshots the conservation ledger.
func (r *Recorder) Counters() Counters {
	var c Counters
	c.Ingested = r.ingested.Load()
	c.Split = r.split.Load()
	c.Consolidated = r.consolidated.Load()
	c.Filtered = r.filtered.Load()
	c.Expired = r.expired.Load()
	c.Attributed = r.attributed.Load()
	for i := range c.ByReason {
		c.ByReason[i] = r.byReason[i].Load()
	}
	return c
}

// InFlight reports lineages ingested but not yet terminal. Zero once the
// pipeline is quiescent (all aggregates swept, all streams expired).
func (r *Recorder) InFlight() int64 {
	c := r.Counters()
	return c.Ingested - c.Terminal()
}

// RegisterMetrics exposes the conservation ledger on a telemetry
// registry. The lineage counters must satisfy, at quiescence:
//
//	skynet_lineage_ingested_total == consolidated + filtered + expired + attributed
func (r *Recorder) RegisterMetrics(reg *telemetry.Registry) {
	load := func(c *atomic.Int64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	reg.CounterFunc("skynet_lineage_ingested_total",
		"Lineages ingested (raw alerts plus link-split mirrors).",
		load(&r.ingested))
	reg.CounterFunc("skynet_lineage_split_total",
		"Mirrored lineages created by the link-alert split (§4.1).",
		load(&r.split))
	reg.CounterFunc("skynet_lineage_consolidated_total",
		"Lineages absorbed into an existing aggregate (consolidation rule 1).",
		load(&r.consolidated))
	reg.CounterFunc("skynet_lineage_filtered_total",
		"Lineages dropped by a §4.1 filter rule.",
		load(&r.filtered))
	reg.CounterFunc("skynet_lineage_expired_total",
		"Lineages expired from the main alert tree unclaimed (Algorithm 3).",
		load(&r.expired))
	reg.CounterFunc("skynet_lineage_attributed_total",
		"Lineages attributed to an incident tree.",
		load(&r.attributed))
	reg.GaugeFunc("skynet_lineage_in_flight",
		"Lineages ingested but not yet resolved to a terminal state.",
		func() float64 { return float64(r.InFlight()) })
	for reason := FilterUnclassified; reason < numFilterReasons; reason++ {
		reg.CounterFunc("skynet_lineage_filtered_"+reason.String()+"_total",
			"Lineages filtered by the "+reason.String()+" rule.",
			load(&r.byReason[reason]))
	}
}
