package flood

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
	"skynet/internal/incident"
	"skynet/internal/telemetry"
	"skynet/internal/tsdb"
)

var epoch = time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)

func tickTime(tick uint64) time.Time {
	return epoch.Add(time.Duration(tick) * 10 * time.Second)
}

// feed drives one detector tick: raw alerts through the inter-tick tap,
// the same alerts as the structured batch, and any created incidents
// (also reported active so severity tracking sees them).
func feed(r *Recorder, tick uint64, raw int, created ...*incident.Incident) TickOutcome {
	a := alert.Alert{
		Source:   alert.SourcePing,
		Type:     "packet loss",
		Time:     tickTime(tick),
		Location: hierarchy.MustNew("r1", "dc1", "pod1", "rack1", "dev1"),
	}
	structured := make([]alert.Alert, 0, raw)
	srcs := make([]alert.Source, 0, raw)
	for i := 0; i < raw; i++ {
		srcs = append(srcs, a.Source)
		structured = append(structured, a)
	}
	r.ObserveRaw(srcs)
	return r.ObserveTick(tickTime(tick), tick, structured, created, created, nil)
}

// quietThenBurst drives the canonical lifecycle: quiet background, a
// sustained burst, a fall-off, then silence until the episode closes.
// Returns the closed report.
func quietThenBurst(t *testing.T, r *Recorder) *Report {
	t.Helper()
	tick := uint64(0)
	for ; tick < 10; tick++ { // quiet baseline
		if out := feed(r, tick, 1); out.EpisodeID != 0 {
			t.Fatalf("tick %d: quiet background opened episode %d", tick, out.EpisodeID)
		}
	}
	for ; tick < 14; tick++ { // burst
		feed(r, tick, 100)
	}
	feed(r, tick, 50) // falling edge: rate below fast EWMA → peak
	tick++
	var closed *Report
	for ; tick < 40 && closed == nil; tick++ { // silence until close
		closed = feed(r, tick, 0).Closed
	}
	if closed == nil {
		t.Fatal("episode never closed after the burst ended")
	}
	return closed
}

func TestDetectorLifecycle(t *testing.T) {
	r := New(Config{})
	var events []Event
	r.SetNotify(func(ev Event) { events = append(events, ev) })

	rep := quietThenBurst(t, r)
	if rep.ID != 1 {
		t.Errorf("episode ID = %d, want 1", rep.ID)
	}
	if rep.Phase != PhaseClosed {
		t.Errorf("closed report phase = %s", rep.Phase)
	}
	// The burst starts at tick 10 and confirms at tick 11; the report
	// must be backdated to the first qualifying tick.
	if rep.StartTick != 10 {
		t.Errorf("StartTick = %d, want 10 (backdated to the onset rise)", rep.StartTick)
	}
	if !rep.Start.Equal(tickTime(10)) {
		t.Errorf("Start = %v, want %v", rep.Start, tickTime(10))
	}
	// Volume: 4 ticks at 100 plus the 50-alert falling edge, counted
	// from the backdated start, silence after.
	if want := int64(450); rep.RawTotal != want {
		t.Errorf("RawTotal = %d, want %d", rep.RawTotal, want)
	}
	if rep.StructuredTotal != rep.RawTotal {
		t.Errorf("StructuredTotal = %d, want %d (feed emits 1:1)", rep.StructuredTotal, rep.RawTotal)
	}
	if rep.ConsolidationRatio != 1 {
		t.Errorf("ConsolidationRatio = %v, want 1", rep.ConsolidationRatio)
	}
	if rep.PeakRate != 100 {
		t.Errorf("PeakRate = %d, want 100", rep.PeakRate)
	}
	if rep.DurationTicks != rep.EndTick-rep.StartTick+1 {
		t.Errorf("DurationTicks = %d, EndTick = %d, StartTick = %d",
			rep.DurationTicks, rep.EndTick, rep.StartTick)
	}
	if rep.RawBySource["ping"] != rep.RawTotal {
		t.Errorf("RawBySource = %v, want all %d under ping", rep.RawBySource, rep.RawTotal)
	}
	if len(rep.TopLocations) != 1 || rep.TopLocations[0].Count != rep.StructuredTotal {
		t.Errorf("TopLocations = %+v, want the single feed location", rep.TopLocations)
	}
	// The phase timeline must walk onset → peak → decay → closed.
	var names []string
	for _, pc := range rep.Timeline {
		names = append(names, pc.Phase.String())
	}
	if got := strings.Join(names, " "); got != "onset peak decay closed" {
		t.Errorf("timeline = %q, want \"onset peak decay closed\"", got)
	}
	// Notify saw the same transitions, all tagged with the episode ID.
	if len(events) != len(rep.Timeline) {
		t.Fatalf("notify fired %d events, timeline has %d transitions", len(events), len(rep.Timeline))
	}
	for i, ev := range events {
		if ev.Episode != rep.ID || ev.Phase != rep.Timeline[i].Phase {
			t.Errorf("event %d = %+v, want episode %d phase %s", i, ev, rep.ID, rep.Timeline[i].Phase)
		}
	}
	if r.CurrentID() != 0 || r.CurrentPhase() != PhaseIdle {
		t.Errorf("after close: CurrentID=%d CurrentPhase=%s, want idle", r.CurrentID(), r.CurrentPhase())
	}
	if r.ClosedCount() != 1 {
		t.Errorf("ClosedCount = %d, want 1", r.ClosedCount())
	}
}

func TestChurnOnsetAdoptsIncidents(t *testing.T) {
	r := New(Config{})
	root := hierarchy.MustNew("r1", "dc1")
	mk := func(id int, sev float64) *incident.Incident {
		in := incident.New(id, root)
		in.Severity = sev
		return in
	}
	// No rate at all — incident churn alone must confirm an episode.
	feed(r, 0, 0)
	out := feed(r, 1, 0, mk(1, 0.2), mk(2, 0.4), mk(3, 0.1))
	if out.EpisodeID != 0 {
		t.Fatalf("churn run confirmed after one tick (ConfirmTicks=2): %+v", out)
	}
	out = feed(r, 2, 0, mk(4, 0.9), mk(5, 0.3), mk(6, 0.5))
	if !out.Opened || out.EpisodeID != 1 {
		t.Fatalf("churn did not open an episode: %+v", out)
	}
	// The opening tick backfills the incidents created during the rise.
	if len(out.Adopted) != 6 {
		t.Fatalf("Adopted = %v, want the 6 incidents from both churn ticks", out.Adopted)
	}
	rep, ok := r.Report(1)
	if !ok {
		t.Fatal("open episode not reachable via Report")
	}
	if rep.IncidentsCreated != 6 || len(rep.Incidents) != 6 {
		t.Errorf("IncidentsCreated = %d, timeline %d, want 6", rep.IncidentsCreated, len(rep.Incidents))
	}
	if rep.MaxSeverity != 0.9 || rep.MaxSeverityIncident != 4 {
		t.Errorf("MaxSeverity = %v on %d, want 0.9 on 4", rep.MaxSeverity, rep.MaxSeverityIncident)
	}
}

func TestMinorBurstNeverConfirms(t *testing.T) {
	r := New(Config{})
	for tick := uint64(0); tick < 10; tick++ {
		feed(r, tick, 1)
	}
	// The benign "minor" shape: one 11-alert tick, then ~1/tick. The
	// single qualifying tick must not confirm (ConfirmTicks=2).
	feed(r, 10, 11)
	for tick := uint64(11); tick < 30; tick++ {
		if out := feed(r, tick, 1); out.EpisodeID != 0 {
			t.Fatalf("tick %d: minor burst opened episode %d", tick, out.EpisodeID)
		}
	}
	if got := r.Episodes(); len(got) != 0 {
		t.Fatalf("minor burst produced %d episodes", len(got))
	}
}

func TestEpisodeRetention(t *testing.T) {
	r := New(Config{MaxEpisodes: 2})
	for i := 0; i < 3; i++ {
		quietThenBurst(t, r)
	}
	eps := r.Episodes()
	if len(eps) != 2 {
		t.Fatalf("retained %d episodes, want 2", len(eps))
	}
	if eps[0].ID != 2 || eps[1].ID != 3 {
		t.Errorf("retained IDs %d,%d; want oldest evicted (2,3)", eps[0].ID, eps[1].ID)
	}
	if _, ok := r.Report(1); ok {
		t.Error("evicted episode 1 still reachable via Report")
	}
	if r.ClosedCount() != 3 {
		t.Errorf("ClosedCount = %d, want 3 (eviction must not rewind it)", r.ClosedCount())
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := New(Config{})
	rep := quietThenBurst(t, r)
	first, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatalf("report does not unmarshal into its own struct: %v", err)
	}
	second, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("report JSON does not round-trip:\n first: %s\nsecond: %s", first, second)
	}
	if decoded.Phase != PhaseClosed || decoded.RawTotal != rep.RawTotal {
		t.Errorf("decoded report lost fields: %+v", decoded)
	}
}

func TestPerfExcludedFromFingerprint(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	// Identical alert streams, but only a records wall-clock perf.
	tick := uint64(0)
	for ; tick < 12; tick++ {
		raw := 1
		if tick >= 10 {
			raw = 100
		}
		feed(a, tick, raw)
		feed(b, tick, raw)
		a.ObservePerf(time.Duration(tick+1)*time.Millisecond, int64(tick))
	}
	if a.CurrentID() != 1 || b.CurrentID() != 1 {
		t.Fatalf("episodes not open: a=%d b=%d", a.CurrentID(), b.CurrentID())
	}
	rep, _ := a.Report(1)
	if rep.Perf.Ticks == 0 {
		t.Error("ObservePerf recorded nothing on the open episode")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("wall-clock perf leaked into the deterministic fingerprint:\n%s\nvs\n%s",
			a.Fingerprint(), b.Fingerprint())
	}
}

func TestRegisterMetricsEpisodeLabels(t *testing.T) {
	reg := telemetry.New()
	r := New(Config{})
	r.RegisterMetrics(reg)
	quietThenBurst(t, r)
	var b strings.Builder
	if err := reg.Expose(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`skynet_flood_episode_raw_total{episode="1"} 450`,
		`skynet_flood_episodes_total 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestPhaseTextRoundTrip(t *testing.T) {
	for _, p := range []Phase{PhaseIdle, PhaseOnset, PhasePeak, PhaseDecay, PhaseClosed} {
		b, err := p.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got Phase
		if err := got.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if got != p {
			t.Errorf("phase %s round-tripped to %s", p, got)
		}
	}
	var bad Phase
	if err := bad.UnmarshalText([]byte("nope")); err == nil {
		t.Error("unknown phase text silently accepted")
	}
}

// TestHistoryTapAttachesCurves wires a tick-indexed store behind the
// SetHistory tap: the closed report must carry the metric's samples over
// the episode window, unknown metrics are skipped, and the curves stay
// out of the determinism fingerprint.
func TestHistoryTapAttachesCurves(t *testing.T) {
	db := tsdb.New(tsdb.Config{})
	for tick := uint64(0); tick < 40; tick++ {
		db.Append("skynet_preprocess_pending", tick, float64(tick))
	}
	r := New(Config{})
	r.SetHistory(HistoryFromDB(db, "skynet_preprocess_pending", "skynet_no_such_metric"))
	rep := quietThenBurst(t, r)
	if len(rep.History) != 1 {
		t.Fatalf("History = %+v, want the one known metric", rep.History)
	}
	hc := rep.History[0]
	if hc.Metric != "skynet_preprocess_pending" || hc.FromTick != rep.StartTick || hc.Step != 1 {
		t.Fatalf("curve = %+v, want window starting at %d step 1", hc, rep.StartTick)
	}
	if want := int(rep.EndTick - rep.StartTick + 1); len(hc.Values) != want {
		t.Fatalf("curve has %d samples, want %d (one per episode tick)", len(hc.Values), want)
	}
	if hc.Values[0] != float64(rep.StartTick) {
		t.Fatalf("curve[0] = %v, want %v (the stored tick value)", hc.Values[0], rep.StartTick)
	}
	if fp := rep.Fingerprint(); strings.Contains(fp, "skynet_preprocess_pending") {
		t.Error("history curves leaked into the determinism fingerprint")
	}
	if !strings.Contains(rep.Render(), "history") {
		t.Error("Render omits the history curves")
	}
}
