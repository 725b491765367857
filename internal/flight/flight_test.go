package flight

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/span"
	"skynet/internal/telemetry"
)

// dumpRoot returns where this test should write flight dumps: the
// SKYNET_FLIGHT_DUMP_DIR directory when set (CI uploads it as an
// artifact), else a per-test temp dir.
func dumpRoot(t *testing.T) string {
	t.Helper()
	if dir := os.Getenv("SKYNET_FLIGHT_DUMP_DIR"); dir != "" {
		sub := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_"))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		return sub
	}
	return t.TempDir()
}

func at(sec int) time.Time {
	return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC).Add(time.Duration(sec) * time.Second)
}

// TestTriggerDumpsEvidenceAndRecovers holds the ingest queue over its
// high-water mark for one tick: the trigger must fire, write a dump with
// the span ring, metrics snapshot, and goroutine profile, flip health to
// degraded — and recover once the queue drains. (It drove the dump
// through the single-window tick_p99 trigger until the burn-rate engine's
// slo_burn replaced that one.)
func TestTriggerDumpsEvidenceAndRecovers(t *testing.T) {
	dir := dumpRoot(t)
	tracer := span.NewTracer(4)
	reg := telemetry.New()
	reg.Counter("skynet_test_sentinel", "Present in dump snapshots.").Inc()
	// Record one real trace so spans.json has content.
	act := tracer.StartTick(1, at(0))
	r := act.Begin(span.Root, "preprocess")
	act.End(r, 3)
	act.Finish()

	var depth atomic.Int64
	rec := New(Config{Dir: dir, Window: 4},
		Sources{Tracer: tracer, Metrics: reg, Incidents: func() any { return []string{"inc-1"} },
			Queue: func() (int, int) { return int(depth.Load()), 100 }})

	var events []Event
	rec.SetNotify(func(ev Event) { events = append(events, ev) })

	rec.Observe(at(0), 10*time.Millisecond)
	if h := rec.Health(); !h.OK {
		t.Fatalf("healthy tick reported degraded: %+v", h)
	}
	depth.Store(95) // the induced backlog
	rec.Observe(at(10), 10*time.Millisecond)
	h := rec.Health()
	if h.OK {
		t.Fatal("queue over high water did not flip health to degraded")
	}
	if len(h.Degraded) != 1 || h.Degraded[0] != TriggerQueueHigh {
		t.Fatalf("degraded = %v, want [%s]", h.Degraded, TriggerQueueHigh)
	}
	if h.Dumps != 1 || h.LastDump == "" {
		t.Fatalf("dumps = %d lastDump = %q, want one dump", h.Dumps, h.LastDump)
	}
	for _, name := range []string{"trigger.json", "spans.json", "metrics.prom", "goroutines.txt", "heap.pprof", "incidents.json"} {
		fi, err := os.Stat(filepath.Join(h.LastDump, name))
		if err != nil {
			t.Errorf("dump missing %s: %v", name, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("dump %s is empty", name)
		}
	}
	data, err := os.ReadFile(filepath.Join(h.LastDump, "metrics.prom"))
	if err != nil || !strings.Contains(string(data), "skynet_test_sentinel") {
		t.Errorf("metrics.prom missing registry content: %v", err)
	}
	if len(events) != 1 || events[0].Trigger != TriggerQueueHigh || events[0].DumpDir != h.LastDump {
		t.Fatalf("events = %+v, want one queue_high_water event carrying the dump dir", events)
	}

	depth.Store(0)
	rec.Observe(at(20), 10*time.Millisecond)
	if h := rec.Health(); !h.OK {
		t.Fatalf("health did not recover after the queue drained: %+v", h)
	}
	// Recovery emits no event and no second dump.
	if len(events) != 1 {
		t.Fatalf("recovery emitted events: %+v", events[1:])
	}
	if h := rec.Health(); h.Dumps != 1 {
		t.Fatalf("recovery wrote a dump: %d", h.Dumps)
	}
}

// TestEdgeTriggersFireOnDeltas drives the shed and journal counters: the
// triggers must fire on positive deltas only, once per rising edge.
func TestEdgeTriggersFireOnDeltas(t *testing.T) {
	var shed, evicted atomic.Int64
	shed.Store(5) // pre-existing sheds must not fire at construction
	rec := New(Config{Window: 8},
		Sources{Shed: shed.Load, JournalEvicted: evicted.Load})
	var events []Event
	rec.SetNotify(func(ev Event) { events = append(events, ev) })

	rec.Observe(at(0), time.Millisecond)
	if h := rec.Health(); !h.OK {
		t.Fatalf("baseline sheds fired a trigger: %+v", h)
	}
	shed.Add(3)
	evicted.Add(1)
	rec.Observe(at(10), time.Millisecond)
	h := rec.Health()
	if h.OK || len(h.Degraded) != 2 {
		t.Fatalf("want ingest_shed+journal_drop firing, got %+v", h.Degraded)
	}
	if len(events) != 2 {
		t.Fatalf("want 2 events, got %+v", events)
	}
	// No new deltas: both recover.
	rec.Observe(at(20), time.Millisecond)
	if h := rec.Health(); !h.OK {
		t.Fatalf("edge triggers stayed firing with no new deltas: %+v", h.Degraded)
	}
	// A second burst re-fires.
	shed.Add(1)
	rec.Observe(at(30), time.Millisecond)
	found := false
	for _, got := range rec.Health().Triggers {
		if got.Name == TriggerIngestShed {
			found = true
			if got.Fired != 2 {
				t.Fatalf("ingest_shed fired = %+v, want 2 edges", got)
			}
		}
	}
	if !found {
		t.Fatal("ingest_shed missing from health triggers")
	}
}

// TestQueueAndConservationTriggers covers the level triggers.
func TestQueueAndConservationTriggers(t *testing.T) {
	var depth, inflight atomic.Int64
	rec := New(Config{Window: 8, QueueFraction: 0.5},
		Sources{
			Queue:        func() (int, int) { return int(depth.Load()), 100 },
			ProvInFlight: inflight.Load,
		})
	depth.Store(49)
	rec.Observe(at(0), time.Millisecond)
	if !rec.Health().OK {
		t.Fatal("queue below high water fired")
	}
	depth.Store(50)
	inflight.Store(-1)
	rec.Observe(at(10), time.Millisecond)
	h := rec.Health()
	if len(h.Degraded) != 2 || h.Degraded[0] != TriggerQueueHigh || h.Degraded[1] != TriggerProvViolate {
		t.Fatalf("degraded = %v", h.Degraded)
	}
	depth.Store(0)
	inflight.Store(0)
	rec.Observe(at(20), time.Millisecond)
	if !rec.Health().OK {
		t.Fatal("level triggers did not recover")
	}
}

// TestDumpCooldownAndCap verifies rate limiting: within the cooldown only
// the first firing dumps, and MaxDumps bounds the lifetime total.
func TestDumpCooldownAndCap(t *testing.T) {
	dir := dumpRoot(t)
	var shed atomic.Int64
	rec := New(Config{Dir: dir, Window: 4, Cooldown: time.Minute, MaxDumps: 2},
		Sources{Shed: shed.Load})
	fire := func(sec int) {
		shed.Add(1)
		rec.Observe(at(sec), time.Millisecond)
		rec.Observe(at(sec+1), time.Millisecond) // recover so the next delta is a rising edge
	}
	fire(0)   // dump 1
	fire(10)  // within cooldown: no dump
	fire(70)  // dump 2
	fire(140) // capped
	h := rec.Health()
	if h.Dumps != 2 {
		t.Fatalf("dumps = %d, want 2 (cooldown + cap)", h.Dumps)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("dump dirs on disk = %d, want 2", len(entries))
	}
}

// TestTwoTriggersWithinCooldown pins the cooldown/cap interaction when
// two DIFFERENT triggers fire inside one cooldown window: the first
// firing carries the dump, the second is an event only (empty DumpDir,
// dump count unchanged), and once the cooldown elapses the suppressed
// trigger class dumps normally.
func TestTwoTriggersWithinCooldown(t *testing.T) {
	dir := dumpRoot(t)
	var shed, evicted atomic.Int64
	rec := New(Config{Dir: dir, Window: 4, Cooldown: time.Minute, MaxDumps: 4},
		Sources{Shed: shed.Load, JournalEvicted: evicted.Load})
	var events []Event
	rec.SetNotify(func(ev Event) { events = append(events, ev) })

	shed.Add(1)
	rec.Observe(at(0), time.Millisecond) // dump 1
	evicted.Add(1)
	rec.Observe(at(10), time.Millisecond) // within cooldown: event only
	h := rec.Health()
	if h.Dumps != 1 {
		t.Fatalf("dumps = %d after second trigger inside cooldown, want 1", h.Dumps)
	}
	if len(events) != 2 {
		t.Fatalf("events = %+v, want 2", events)
	}
	if events[0].Trigger != TriggerIngestShed || events[0].DumpDir == "" {
		t.Fatalf("first event %+v should carry the dump", events[0])
	}
	if events[1].Trigger != TriggerJournalDrop || events[1].DumpDir != "" {
		t.Fatalf("second event %+v should be event-only (no dump dir)", events[1])
	}
	// The suppressed trigger was detected, just not dumped.
	for _, tr := range h.Triggers {
		if tr.Name == TriggerJournalDrop && tr.Fired != 1 {
			t.Fatalf("journal_drop fired = %d, want 1 (detection is never rate-limited)", tr.Fired)
		}
	}

	// Recover both edges, then re-fire the suppressed class after the
	// cooldown: it must dump this time.
	rec.Observe(at(20), time.Millisecond)
	evicted.Add(1)
	rec.Observe(at(70), time.Millisecond)
	if h := rec.Health(); h.Dumps != 2 {
		t.Fatalf("dumps = %d after cooldown elapsed, want 2", h.Dumps)
	}
	if last := events[len(events)-1]; last.Trigger != TriggerJournalDrop || last.DumpDir == "" {
		t.Fatalf("post-cooldown event %+v should carry a dump", last)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Fatalf("dump dirs on disk = %d (%v), want 2", len(entries), err)
	}
}

// TestSLOBurnOwnsLatencyJudgement wires the burn-rate engine taps: the
// recorder itself judges no latency (a tick far over the reported SLO
// fires nothing — the single-window tick_p99 trigger is gone), a
// positive burn-event delta fires slo_burn with the engine's detail, and
// dumps embed the pre-trigger history window as history.json.
func TestSLOBurnOwnsLatencyJudgement(t *testing.T) {
	dir := dumpRoot(t)
	var burns atomic.Int64
	burns.Store(3) // events from before the recorder existed must not fire
	rec := New(Config{Dir: dir, SLOTickP99: 100 * time.Millisecond, Window: 4},
		Sources{
			SLOBurnEvents: burns.Load,
			SLODetail:     func() string { return "tick-latency fast 15.00 slow 7.10" },
			History: func(w io.Writer) error {
				_, err := io.WriteString(w, `{"series":[]}`)
				return err
			},
		})
	var events []Event
	rec.SetNotify(func(ev Event) { events = append(events, ev) })

	rec.Observe(at(0), 500*time.Millisecond) // 5x the tick SLO
	if h := rec.Health(); h.TickP99 != 500*time.Millisecond || h.SLOTickP99 != 100*time.Millisecond {
		t.Fatalf("health reports p99 %s against SLO %s, want 500ms against 100ms", h.TickP99, h.SLOTickP99)
	}
	if h := rec.Health(); !h.OK {
		t.Fatalf("a slow tick degraded health without a burn event: %+v", h.Degraded)
	}
	burns.Add(1)
	rec.Observe(at(10), time.Millisecond)
	h := rec.Health()
	if len(h.Degraded) != 1 || h.Degraded[0] != TriggerSLOBurn {
		t.Fatalf("degraded = %v, want [%s]", h.Degraded, TriggerSLOBurn)
	}
	if len(events) != 1 || events[0].Trigger != TriggerSLOBurn ||
		!strings.Contains(events[0].Detail, "tick-latency fast 15.00") {
		t.Fatalf("events = %+v, want one slo_burn carrying the engine detail", events)
	}
	data, err := os.ReadFile(filepath.Join(h.LastDump, "history.json"))
	if err != nil || string(data) != `{"series":[]}` {
		t.Fatalf("history.json = %q (%v), want the history snapshot", data, err)
	}
	// No new events: slo_burn recovers.
	rec.Observe(at(20), time.Millisecond)
	if h := rec.Health(); !h.OK {
		t.Fatalf("slo_burn stayed firing with no new events: %+v", h.Degraded)
	}
}

// TestRetentionRacesDumpInProgress hammers MaxDumpDirs pruning while
// dumps are still being written from concurrent Observe calls: the slow
// Incidents callback keeps each dump in progress while other goroutines
// prune, which must never panic or corrupt recorder state, and a final
// quiescent dump must leave exactly MaxDumpDirs directories.
func TestRetentionRacesDumpInProgress(t *testing.T) {
	dir := dumpRoot(t)
	var shed atomic.Int64
	rec := New(Config{Dir: dir, Window: 4, Cooldown: time.Nanosecond, MaxDumps: -1, MaxDumpDirs: 2},
		Sources{
			Shed: shed.Load,
			Incidents: func() any {
				time.Sleep(2 * time.Millisecond) // hold the dump open mid-write
				return []string{"inc"}
			},
		})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				shed.Add(1)
				rec.Observe(at(g*100+i*2), time.Millisecond)
				rec.Observe(at(g*100+i*2+1), time.Millisecond) // recover the edge
			}
		}(g)
	}
	wg.Wait()
	if h := rec.Health(); h.Dumps < 1 {
		t.Fatalf("no dumps written under concurrency: %+v", h)
	}
	// Quiesce, then one final sequential dump: its prune pass sees every
	// completed directory and must enforce the cap.
	rec.Observe(at(1000), time.Millisecond)
	shed.Add(1)
	rec.Observe(at(1001), time.Millisecond)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dumps []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "flight-") {
			dumps = append(dumps, e.Name())
		}
	}
	if len(dumps) != 2 {
		t.Fatalf("retained %d dump dirs %v after quiescent prune, want 2", len(dumps), dumps)
	}
}

// TestRegisterMetrics checks the self-metrics reflect recorder state.
func TestRegisterMetrics(t *testing.T) {
	var shed atomic.Int64
	rec := New(Config{Window: 4}, Sources{Shed: shed.Load})
	reg := telemetry.New()
	rec.RegisterMetrics(reg)
	find := func(name string) float64 {
		for _, s := range reg.Snapshot() {
			if s.Name == name {
				return s.Value
			}
		}
		t.Fatalf("metric %s not registered", name)
		return 0
	}
	rec.Observe(at(0), time.Millisecond)
	if v := find("skynet_flight_degraded"); v != 0 {
		t.Fatalf("degraded = %v at rest", v)
	}
	shed.Add(1)
	rec.Observe(at(10), time.Millisecond)
	if v := find("skynet_flight_degraded"); v != 1 {
		t.Fatalf("degraded = %v while firing", v)
	}
	if v := find("skynet_flight_trigger_ingest_shed_total"); v != 1 {
		t.Fatalf("trigger counter = %v, want 1", v)
	}
	if v := find("skynet_flight_tick_p99_seconds"); v <= 0 {
		t.Fatalf("tick p99 gauge = %v", v)
	}
}

// TestDumpRetention verifies MaxDumpDirs pruning: after each dump the
// oldest flight-* directories beyond the cap are deleted, while
// anything else under the dump root is left alone.
func TestDumpRetention(t *testing.T) {
	dir := dumpRoot(t)
	if err := os.MkdirAll(filepath.Join(dir, "keepme"), 0o755); err != nil {
		t.Fatal(err)
	}
	var shed atomic.Int64
	rec := New(Config{Dir: dir, Window: 4, Cooldown: time.Second, MaxDumps: -1, MaxDumpDirs: 2},
		Sources{Shed: shed.Load})
	fire := func(sec int) {
		shed.Add(1)
		rec.Observe(at(sec), time.Millisecond)
		rec.Observe(at(sec+1), time.Millisecond) // recover so the next delta is a rising edge
	}
	for i := 0; i < 4; i++ {
		fire(i * 70)
	}
	if h := rec.Health(); h.Dumps != 4 {
		t.Fatalf("dumps written = %d, want 4 (MaxDumps<0 is unlimited)", h.Dumps)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dumps []string
	keep := false
	for _, e := range entries {
		if e.Name() == "keepme" {
			keep = true
			continue
		}
		if strings.HasPrefix(e.Name(), "flight-") {
			dumps = append(dumps, e.Name())
		}
	}
	if !keep {
		t.Error("retention pruning deleted an unrelated directory")
	}
	if len(dumps) != 2 {
		t.Fatalf("retained %d dump dirs %v, want the 2 newest", len(dumps), dumps)
	}
	// Names embed the observe timestamp, so lexicographic order is
	// chronological: the survivors must be the two most recent dumps
	// (sequence numbers 003 and 004).
	sort.Strings(dumps)
	for i, want := range []string{"-003", "-004"} {
		if !strings.HasSuffix(dumps[i], want) {
			t.Errorf("survivor %d = %q, want suffix %q (oldest-first deletion)", i, dumps[i], want)
		}
	}
}

// TestFloodCloseTrigger verifies the flood_close edge: a closed flood
// episode fires one dump trigger, and pre-existing closes at
// construction do not.
func TestFloodCloseTrigger(t *testing.T) {
	var closed atomic.Int64
	closed.Store(2) // episodes closed before the recorder existed
	rec := New(Config{Window: 4}, Sources{FloodClosed: closed.Load})
	var events []Event
	rec.SetNotify(func(ev Event) { events = append(events, ev) })

	rec.Observe(at(0), time.Millisecond)
	if h := rec.Health(); !h.OK {
		t.Fatalf("pre-existing flood closes fired at construction: %+v", h.Degraded)
	}
	closed.Add(1)
	rec.Observe(at(10), time.Millisecond)
	h := rec.Health()
	if len(h.Degraded) != 1 || h.Degraded[0] != TriggerFloodClose {
		t.Fatalf("degraded = %v, want [%s]", h.Degraded, TriggerFloodClose)
	}
	if len(events) != 1 || events[0].Trigger != TriggerFloodClose {
		t.Fatalf("events = %+v, want one flood_close", events)
	}
	rec.Observe(at(20), time.Millisecond)
	if h := rec.Health(); !h.OK {
		t.Fatalf("flood_close stayed firing with no new closes: %+v", h.Degraded)
	}
}
