package core

import (
	"strings"
	"testing"
	"time"

	"skynet/internal/scenario"
	"skynet/internal/telemetry"
)

// instrumentedRunner is newRunner with a registry and journal attached.
func instrumentedRunner(t *testing.T) (*Runner, *telemetry.Registry, *telemetry.Journal) {
	t.Helper()
	topo := smallTopo()
	r := newRunner(t, topo)
	reg := telemetry.New()
	j := telemetry.NewJournal(0)
	r.Engine.EnableTelemetry(reg, j)
	return r, reg, j
}

func findMetric(t *testing.T, reg *telemetry.Registry, name string) telemetry.MetricSnapshot {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("metric %s not registered", name)
	return telemetry.MetricSnapshot{}
}

func TestTelemetryCountersTrackPipeline(t *testing.T) {
	r, reg, _ := instrumentedRunner(t)
	sc := scenario.FiberCutSevere(r.Sim.Topology(), epoch.Add(time.Minute))
	if err := sc.Inject(r.Sim); err != nil {
		t.Fatal(err)
	}
	stats, err := r.Run(epoch, epoch.Add(8*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if got := findMetric(t, reg, "skynet_raw_alerts_total").Value; int(got) != stats.RawAlerts {
		t.Errorf("raw counter = %v, runner saw %d", got, stats.RawAlerts)
	}
	if got := findMetric(t, reg, "skynet_structured_alerts_total").Value; int(got) != stats.Structured {
		t.Errorf("structured counter = %v, runner saw %d", got, stats.Structured)
	}
	if got := findMetric(t, reg, "skynet_incidents_created_total").Value; int(got) != stats.NewIncidents {
		t.Errorf("created counter = %v, runner saw %d", got, stats.NewIncidents)
	}
	if got := findMetric(t, reg, "skynet_active_incidents").Value; int(got) != len(r.Engine.Active()) {
		t.Errorf("active gauge = %v, engine has %d", got, len(r.Engine.Active()))
	}
	ticks := findMetric(t, reg, "skynet_ticks_total").Value
	if ticks == 0 {
		t.Fatal("no ticks counted")
	}
	// Every stage histogram must have one observation per tick, and the
	// full-tick histogram must dominate each stage's sum.
	tick := findMetric(t, reg, "skynet_tick_seconds").Hist
	if tick == nil || tick.Count != int64(ticks) {
		t.Fatalf("tick histogram = %+v, want count %v", tick, ticks)
	}
	for _, name := range []string{
		"skynet_stage_preprocess_seconds",
		"skynet_stage_locate_seconds",
		"skynet_stage_evaluate_seconds",
		"skynet_stage_sop_seconds",
		"skynet_stage_publish_seconds",
	} {
		h := findMetric(t, reg, name).Hist
		if h == nil || h.Count != int64(ticks) {
			t.Errorf("%s count = %+v, want %v", name, h, ticks)
		}
		if h != nil && h.Sum > tick.Sum {
			t.Errorf("%s sum %v exceeds whole-tick sum %v", name, h.Sum, tick.Sum)
		}
	}
	// The exposition must render without error and carry the counters.
	var b strings.Builder
	if err := reg.Expose(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "skynet_raw_alerts_total") {
		t.Error("exposition missing raw counter")
	}
}

func TestJournalLifecycleForSevereFailure(t *testing.T) {
	r, _, j := instrumentedRunner(t)
	sc := scenario.FiberCutSevere(r.Sim.Topology(), epoch.Add(time.Minute))
	if err := sc.Inject(r.Sim); err != nil {
		t.Fatal(err)
	}
	// Run past the 15-minute incident TTL so the incident closes.
	if _, err := r.Run(epoch, epoch.Add(6*time.Minute)); err != nil {
		t.Fatal(err)
	}
	for now := epoch.Add(6 * time.Minute); now.Before(epoch.Add(25 * time.Minute)); now = now.Add(time.Minute) {
		r.Engine.Tick(now)
	}
	events := j.Events()
	if len(events) == 0 {
		t.Fatal("journal empty after severe failure")
	}
	byType := map[telemetry.EventType]int{}
	created := map[int]bool{}
	var prevSeq int64 = -1
	var prevTime time.Time
	for _, e := range events {
		byType[e.Type]++
		if e.Seq <= prevSeq {
			t.Fatalf("journal out of order: seq %d after %d", e.Seq, prevSeq)
		}
		if e.Time.Before(prevTime) {
			t.Fatalf("journal time regressed at seq %d", e.Seq)
		}
		prevSeq, prevTime = e.Seq, e.Time
		switch e.Type {
		case telemetry.EventCreated:
			created[e.Incident] = true
			if e.Alerts == 0 {
				t.Errorf("created event %d has no alert provenance", e.Incident)
			}
		case telemetry.EventClosed:
			if !created[e.Incident] {
				t.Errorf("incident %d closed without a created event", e.Incident)
			}
		}
	}
	if byType[telemetry.EventCreated] == 0 {
		t.Error("no created events")
	}
	if byType[telemetry.EventClosed] == 0 {
		t.Error("no closed events (incident never timed out)")
	}
	if byType[telemetry.EventUpdated]+byType[telemetry.EventScored] == 0 {
		t.Error("no updated/scored events during the flood")
	}
	if len(r.Engine.Active()) != 0 {
		t.Errorf("%d incidents still active after TTL", len(r.Engine.Active()))
	}
}

func TestUninstrumentedEngineUnchanged(t *testing.T) {
	// Two engines fed identically — one instrumented — must produce the
	// same incidents: telemetry observes, never steers.
	topoA := smallTopo()
	a := newRunner(t, topoA)
	b := newRunner(t, smallTopo())
	b.Engine.EnableTelemetry(telemetry.New(), telemetry.NewJournal(0))
	sc := scenario.FiberCutSevere(topoA, epoch.Add(time.Minute))
	if err := sc.Inject(a.Sim); err != nil {
		t.Fatal(err)
	}
	scB := scenario.FiberCutSevere(b.Sim.Topology(), epoch.Add(time.Minute))
	if err := scB.Inject(b.Sim); err != nil {
		t.Fatal(err)
	}
	sa, err := a.Run(epoch, epoch.Add(6*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Run(epoch, epoch.Add(6*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Errorf("instrumented run diverged: %+v vs %+v", sa, sb)
	}
	if len(a.Engine.Active()) != len(b.Engine.Active()) {
		t.Errorf("active incidents diverged: %d vs %d",
			len(a.Engine.Active()), len(b.Engine.Active()))
	}
}
