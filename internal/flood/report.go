package flood

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"skynet/internal/tsdb"
)

// PhaseChange is one entry of an episode's phase timeline.
type PhaseChange struct {
	Phase Phase     `json:"phase"`
	Tick  uint64    `json:"tick"`
	Time  time.Time `json:"time"`
}

// IncidentEvent is one incident attributed to an episode.
type IncidentEvent struct {
	ID      int       `json:"id"`
	Root    string    `json:"root"`
	Created time.Time `json:"created"`
	// Severity is the incident's latest observed score during the
	// episode window.
	Severity float64 `json:"severity,omitempty"`
}

// TrajectoryPoint is one detector step of an episode's rate/severity
// curve (one tick on a 10 s grid); Raw and Structured count the step.
type TrajectoryPoint struct {
	Tick         uint64    `json:"tick"`
	Time         time.Time `json:"time"`
	Raw          int64     `json:"raw"`
	Structured   int64     `json:"structured"`
	Active       int       `json:"active"`
	NewIncidents int       `json:"new_incidents,omitempty"`
	MaxSeverity  float64   `json:"max_severity,omitempty"`
}

// HistoryCurve is one store-sourced metric trajectory attached to a
// closed episode: the metric's samples over the episode window, read
// from the tick-indexed history store at close. Unlike Trajectory
// (which the recorder accumulates from the alert stream itself), curves
// cover whatever the sampler recorded — tick latency, ingest rates,
// queue depth — so a postmortem shows how the whole pipeline trended
// through the flood. Excluded from Fingerprint: latency series are
// wall-clock in production.
type HistoryCurve struct {
	Metric   string    `json:"metric"`
	FromTick uint64    `json:"from_tick"`
	Step     uint64    `json:"step"`
	Values   []float64 `json:"values"`
}

// LocationCount is one row of an episode's top-locations ranking.
type LocationCount struct {
	Path  string `json:"path"`
	Count int64  `json:"count"`

	id int32 // interning order, the deterministic tie-breaker
}

// PerfStats is the wall-clock view of an episode: how the pipeline
// itself fared while the flood was in progress. Nondeterministic by
// nature (latency varies run to run), so Fingerprint excludes it.
type PerfStats struct {
	// Ticks counts ObservePerf calls during the episode.
	Ticks int64 `json:"ticks"`
	// MinTick/MaxTick/SumTick aggregate the engine tick wall latency.
	MinTick time.Duration `json:"min_tick_ns"`
	MaxTick time.Duration `json:"max_tick_ns"`
	SumTick time.Duration `json:"sum_tick_ns"`
	// Shed is how many raw alerts the ingest layer dropped during the
	// episode (queue overflow).
	Shed int64 `json:"shed"`

	shedStart int64
}

// MeanTick is the average tick wall latency over the episode.
func (p PerfStats) MeanTick() time.Duration {
	if p.Ticks == 0 {
		return 0
	}
	return p.SumTick / time.Duration(p.Ticks)
}

// Report is one flood episode's postmortem: boundaries, phase timeline,
// volume aggregates, incident timeline, and pipeline health. Every
// field except Perf (and the ground-truth fields MatchScenarios fills
// in) is a pure function of the deterministic alert stream, so reports
// are bit-identical across replays at any worker count.
type Report struct {
	// ID is the monotonic episode identifier — the join key carried by
	// metric labels, span ring entries, and provenance records.
	ID uint64 `json:"id"`
	// Phase is the current lifecycle stage (PhaseClosed once finished).
	Phase Phase `json:"phase"`
	// StartTick/Start locate the onset: the first tick of the
	// qualifying run that later confirmed.
	StartTick uint64    `json:"start_tick"`
	Start     time.Time `json:"start"`
	// EndTick is the last tick folded in; End is set on close (zero
	// while the episode is open).
	EndTick uint64    `json:"end_tick"`
	End     time.Time `json:"end,omitempty"`
	// DurationTicks is EndTick − StartTick + 1, set on close.
	DurationTicks uint64 `json:"duration_ticks,omitempty"`
	// Baseline is the frozen slow-EWMA rate (raw alerts per RefSpan) the
	// onset was judged against.
	Baseline float64 `json:"baseline"`
	// Timeline records every phase transition.
	Timeline []PhaseChange `json:"timeline"`

	// PeakRate is the highest raw rate of one detector step, in alerts
	// per RefSpan (on a 10 s grid: the highest single-tick count), at
	// PeakTick.
	PeakRate int64     `json:"peak_rate"`
	PeakTick uint64    `json:"peak_tick,omitempty"`
	PeakTime time.Time `json:"peak_time,omitempty"`

	// RawTotal and StructuredTotal count the episode's alert volume
	// before and after preprocessing; ConsolidationRatio is raw per
	// structured (the §4.1 reduction under flood load).
	RawTotal           int64   `json:"raw_total"`
	StructuredTotal    int64   `json:"structured_total"`
	ConsolidationRatio float64 `json:"consolidation_ratio,omitempty"`
	// RawBySource breaks the raw volume down by monitoring source.
	RawBySource map[string]int64 `json:"raw_by_source,omitempty"`
	// ByType breaks the structured volume down by FT type key.
	ByType map[string]int64 `json:"by_type,omitempty"`
	// TopLocations ranks the busiest alert locations.
	TopLocations []LocationCount `json:"top_locations,omitempty"`

	// Incidents is the episode's incident timeline (capped);
	// IncidentsCreated keeps counting past the cap. MaxSeverity is the
	// highest severity observed on any active incident during the
	// episode, on MaxSeverityIncident.
	Incidents           []IncidentEvent `json:"incidents,omitempty"`
	IncidentsCreated    int             `json:"incidents_created"`
	MaxSeverity         float64         `json:"max_severity,omitempty"`
	MaxSeverityIncident int             `json:"max_severity_incident,omitempty"`

	// Trajectory is the per-tick rate/severity curve (capped at
	// TrajectoryCap; TrajectoryDropped counts the overflow).
	Trajectory        []TrajectoryPoint `json:"trajectory,omitempty"`
	TrajectoryDropped int64             `json:"trajectory_dropped,omitempty"`

	// History holds store-sourced metric trajectories over the episode
	// window, attached at close by the SetHistory tap (nil without one).
	// Excluded from Fingerprint.
	History []HistoryCurve `json:"history,omitempty"`

	// Scenario and DetectionLag are ground-truth annotations filled in
	// by MatchScenarios when the workload's injected scenarios are
	// known (replays and experiments; empty in production).
	Scenario     string        `json:"scenario,omitempty"`
	DetectionLag time.Duration `json:"detection_lag_ns,omitempty"`

	// Perf is the wall-clock pipeline health during the episode —
	// excluded from Fingerprint.
	Perf PerfStats `json:"perf"`

	startSnap cumulative
}

// clone deep-copies the report.
func (rep *Report) clone() Report {
	cp := *rep
	cp.Timeline = append([]PhaseChange(nil), rep.Timeline...)
	cp.Incidents = append([]IncidentEvent(nil), rep.Incidents...)
	cp.Trajectory = append([]TrajectoryPoint(nil), rep.Trajectory...)
	cp.TopLocations = append([]LocationCount(nil), rep.TopLocations...)
	cp.History = append([]HistoryCurve(nil), rep.History...)
	if rep.RawBySource != nil {
		cp.RawBySource = make(map[string]int64, len(rep.RawBySource))
		for k, v := range rep.RawBySource {
			cp.RawBySource[k] = v
		}
	}
	if rep.ByType != nil {
		cp.ByType = make(map[string]int64, len(rep.ByType))
		for k, v := range rep.ByType {
			cp.ByType[k] = v
		}
	}
	cp.startSnap = cumulative{}
	return cp
}

// Fingerprint renders the report's deterministic content — boundaries,
// phase timeline, volume aggregates, and incident attribution — as a
// stable string. Two replays of the same trace must produce identical
// fingerprints at any worker count; Perf and the ground-truth
// annotations are deliberately excluded.
func (rep *Report) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "episode %d phase=%s ticks=[%d,%d] peak=%d@%d raw=%d structured=%d created=%d maxsev=%.6f\n",
		rep.ID, rep.Phase, rep.StartTick, rep.EndTick, rep.PeakRate, rep.PeakTick,
		rep.RawTotal, rep.StructuredTotal, rep.IncidentsCreated, rep.MaxSeverity)
	for _, pc := range rep.Timeline {
		fmt.Fprintf(&b, "  %s@%d\n", pc.Phase, pc.Tick)
	}
	for _, src := range sortedKeys(rep.RawBySource) {
		fmt.Fprintf(&b, "  src %s=%d\n", src, rep.RawBySource[src])
	}
	for _, ft := range sortedKeys(rep.ByType) {
		fmt.Fprintf(&b, "  type %s=%d\n", ft, rep.ByType[ft])
	}
	for _, lc := range rep.TopLocations {
		fmt.Fprintf(&b, "  loc %s=%d\n", lc.Path, lc.Count)
	}
	for _, ie := range rep.Incidents {
		fmt.Fprintf(&b, "  incident %d root=%s\n", ie.ID, ie.Root)
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Fingerprint renders every retained episode's fingerprint, oldest
// first — the whole-run determinism check used by the replay tests.
func (r *Recorder) Fingerprint() string {
	var b strings.Builder
	for _, rep := range r.Episodes() {
		b.WriteString(rep.Fingerprint())
	}
	return b.String()
}

// ScenarioRef is the ground-truth view of one injected scenario, kept
// local so this package does not import the scenario generator.
type ScenarioRef struct {
	Name   string
	Severe bool
	Start  time.Time
	End    time.Time
}

// MatchScenarios annotates episodes with scenario ground truth and
// reports the match census: for each severe scenario, how many episodes
// its activity window overlaps. A correctly calibrated detector maps
// every severe scenario to exactly one episode (Matches[name] == 1).
// Reports gain Scenario and DetectionLag on a first-match basis.
func MatchScenarios(eps []Report, refs []ScenarioRef) map[string]int {
	matches := make(map[string]int)
	for _, ref := range refs {
		if !ref.Severe {
			continue
		}
		matches[ref.Name] = 0
		for i := range eps {
			if !overlaps(&eps[i], ref) {
				continue
			}
			matches[ref.Name]++
			if eps[i].Scenario == "" {
				eps[i].Scenario = ref.Name
				eps[i].DetectionLag = eps[i].Start.Sub(ref.Start)
			}
		}
	}
	return matches
}

// overlaps reports whether an episode's window intersects a scenario's
// activity window. An open episode extends to infinity.
func overlaps(rep *Report, ref ScenarioRef) bool {
	if rep.Start.After(ref.End) {
		return false
	}
	return rep.End.IsZero() || !rep.End.Before(ref.Start)
}

// RenderTable renders a per-episode postmortem table — the
// `skynet-replay -floods` surface.
func RenderTable(eps []Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-3s %-8s %-19s %-9s %10s %10s %10s %7s %5s %9s  %s\n",
		"id", "phase", "start", "duration", "raw", "structured", "ratio", "peak/tk", "incs", "maxsev", "top location")
	for i := range eps {
		rep := &eps[i]
		dur := "open"
		if !rep.End.IsZero() {
			dur = rep.End.Sub(rep.Start).String()
		}
		top := "-"
		if len(rep.TopLocations) > 0 {
			top = fmt.Sprintf("%s (%d)", rep.TopLocations[0].Path, rep.TopLocations[0].Count)
		}
		fmt.Fprintf(&b, "%-3d %-8s %-19s %-9s %10d %10d %9.1fx %7d %5d %9.1f  %s\n",
			rep.ID, rep.Phase, rep.Start.Format("2006-01-02 15:04:05"), dur,
			rep.RawTotal, rep.StructuredTotal, rep.ConsolidationRatio,
			rep.PeakRate, rep.IncidentsCreated, rep.MaxSeverity, top)
		if rep.Scenario != "" {
			fmt.Fprintf(&b, "    ground truth: %s, detection lag %s\n", rep.Scenario, rep.DetectionLag)
		}
	}
	if len(eps) == 0 {
		b.WriteString("no flood episodes detected\n")
	}
	return b.String()
}

// Render renders one episode's full postmortem as text.
func (rep *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== flood episode %d (%s) ==\n", rep.ID, rep.Phase)
	fmt.Fprintf(&b, "  window      ticks %d–%d, %s", rep.StartTick, rep.EndTick, rep.Start.Format(time.RFC3339))
	if !rep.End.IsZero() {
		fmt.Fprintf(&b, " → %s (%s)", rep.End.Format(time.RFC3339), rep.End.Sub(rep.Start))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  onset       baseline %.2f/10s before the flood\n", rep.Baseline)
	fmt.Fprintf(&b, "  volume      %d raw → %d structured (%.1fx consolidation), peak %d/10s at %s\n",
		rep.RawTotal, rep.StructuredTotal, rep.ConsolidationRatio, rep.PeakRate, rep.PeakTime.Format(time.TimeOnly))
	for _, pc := range rep.Timeline {
		fmt.Fprintf(&b, "  phase       %-6s tick %d at %s\n", pc.Phase, pc.Tick, pc.Time.Format(time.TimeOnly))
	}
	for _, src := range sortedKeys(rep.RawBySource) {
		fmt.Fprintf(&b, "  source      %-20s %d\n", src, rep.RawBySource[src])
	}
	for _, lc := range rep.TopLocations {
		fmt.Fprintf(&b, "  location    %-28s %d\n", lc.Path, lc.Count)
	}
	fmt.Fprintf(&b, "  incidents   %d created, max severity %.1f (incident %d)\n",
		rep.IncidentsCreated, rep.MaxSeverity, rep.MaxSeverityIncident)
	for _, ie := range rep.Incidents {
		fmt.Fprintf(&b, "    #%-4d %-28s created %s  severity %.1f\n",
			ie.ID, ie.Root, ie.Created.Format(time.TimeOnly), ie.Severity)
	}
	for _, hc := range rep.History {
		if len(hc.Values) == 0 {
			continue
		}
		lo, hi := hc.Values[0], hc.Values[0]
		for _, v := range hc.Values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		fmt.Fprintf(&b, "  history     %-34s %s  [%.3g, %.3g]\n",
			hc.Metric, tsdb.Sparkline(hc.Values, 40), lo, hi)
	}
	if rep.Scenario != "" {
		fmt.Fprintf(&b, "  truth       scenario %s, detection lag %s\n", rep.Scenario, rep.DetectionLag)
	}
	if rep.Perf.Ticks > 0 {
		fmt.Fprintf(&b, "  pipeline    tick wall latency min/mean/max %s/%s/%s over %d ticks, %d alerts shed\n",
			rep.Perf.MinTick.Round(time.Microsecond), rep.Perf.MeanTick().Round(time.Microsecond),
			rep.Perf.MaxTick.Round(time.Microsecond), rep.Perf.Ticks, rep.Perf.Shed)
	}
	return b.String()
}

// WriteReport archives one episode report as JSON under dir (created on
// demand), named flood-episode-<id>.json — next to the flight dumps, so
// one directory holds both anomaly evidence and flood postmortems.
func WriteReport(dir string, rep *Report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("flood: report dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("flood-episode-%d.json", rep.ID))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", fmt.Errorf("flood: marshal report %d: %w", rep.ID, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("flood: write report: %w", err)
	}
	return path, nil
}
