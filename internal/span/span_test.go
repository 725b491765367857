package span

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"skynet/internal/telemetry"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	a := tr.StartTick(1, time.Now())
	if a != nil {
		t.Fatal("nil tracer must return nil Active")
	}
	r := a.Begin(Root, "stage")
	if r != None {
		t.Fatalf("Begin on nil Active = %d, want None", r)
	}
	a.End(r, 3) // must not panic
	sc := a.Scope(nil)
	if sc != (Scope{}) {
		t.Fatal("scope of nil Active and nil labeler must be the zero Scope")
	}
	st := sc.Enter("stage", nil)
	if !st.start.IsZero() {
		t.Fatal("Enter on the zero Scope with no histogram must not read the clock")
	}
	st.Exit(3) // must not panic
	if sc.shards("shards", 4) != nil {
		t.Fatal("an inert scope's shard callback must be nil so par.DoTimed degrades to par.Do")
	}
	ran := 0
	sc.Fork("shards", 1, 4, func(int) { ran++ })
	sc.ForkWorkers("shards", 1, 4, func(_, _ int) { ran++ })
	if ran != 8 {
		t.Fatalf("inert forks ran %d of 8 tasks", ran)
	}
	if a.Finish() != nil {
		t.Fatal("Finish on nil Active must return nil")
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := NewTracer(4)
	now := time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)
	a := tr.StartTick(7, now)
	hist := telemetry.New().Histogram("stage_seconds", "Test.", telemetry.LatencyBuckets())
	root := a.Scope(nil)
	pre := root.Enter("preprocess", hist)
	pre.Enter("classify", nil).Exit(100)
	pre.Exit(42)
	root.Enter("locate", nil).Exit(5)
	if hist.Count() != 1 {
		t.Errorf("stage histogram observed %d times, want once (preprocess only)", hist.Count())
	}
	fin := a.Finish()
	if fin == nil {
		t.Fatal("Finish returned nil")
	}
	if fin.Tick != 7 || !fin.Time.Equal(now) {
		t.Errorf("trace header = tick %d time %v", fin.Tick, fin.Time)
	}
	if len(fin.Spans) != 4 {
		t.Fatalf("got %d spans, want 4 (tick, preprocess, classify, locate)", len(fin.Spans))
	}
	if fin.Spans[0].Name != "tick" || fin.Spans[0].Parent != -1 {
		t.Errorf("root span = %+v", fin.Spans[0])
	}
	if fin.Spans[1].Name != "preprocess" || fin.Spans[1].Parent != 0 {
		t.Errorf("preprocess span = %+v", fin.Spans[1])
	}
	if fin.Spans[2].Name != "classify" || fin.Spans[2].Parent != 1 {
		t.Errorf("classify span must parent the preprocess span: %+v", fin.Spans[2])
	}
	if fin.Spans[2].Items != 100 {
		t.Errorf("classify items = %d, want 100", fin.Spans[2].Items)
	}
	if fin.Spans[0].Dur != fin.Dur || fin.Dur <= 0 {
		t.Errorf("root dur %v vs trace dur %v", fin.Spans[0].Dur, fin.Dur)
	}
}

func TestForkRecordsShardSpansUnderPar(t *testing.T) {
	tr := NewTracer(4)
	a := tr.StartTick(1, time.Now())
	st := a.Scope(nil).Enter("evaluate", nil)
	const n = 16
	st.Fork("refine_score", 4, n, func(i int) {
		time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
	})
	st.Exit(n)
	fin := a.Finish()
	shards := 0
	for _, sp := range fin.Spans {
		if sp.Name != "refine_score" {
			continue
		}
		shards++
		if sp.Shard < 0 || sp.Shard >= n {
			t.Errorf("bad shard id %d", sp.Shard)
		}
		if sp.Dur <= 0 {
			t.Errorf("shard %d has zero duration", sp.Shard)
		}
		if sp.Wait < 0 {
			t.Errorf("shard %d negative queue wait %v", sp.Shard, sp.Wait)
		}
		if sp.Parent != 1 {
			t.Errorf("shard %d parent = %d, want 1 (evaluate)", sp.Shard, sp.Parent)
		}
	}
	if shards != n {
		t.Fatalf("recorded %d shard spans, want %d", shards, n)
	}
}

func TestRingEvictionAndSlowest(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		a := tr.StartTick(uint64(i), time.Now())
		if i == 2 {
			time.Sleep(2 * time.Millisecond) // the slow tick
		}
		a.Finish()
	}
	if got := tr.TickCount(); got != 5 {
		t.Fatalf("TickCount = %d, want 5", got)
	}
	last := tr.Last(0)
	if len(last) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(last))
	}
	if last[0].Tick != 3 || last[1].Tick != 4 {
		t.Errorf("ring ticks = %d,%d, want 3,4", last[0].Tick, last[1].Tick)
	}
	slow, ok := tr.Slowest()
	if !ok || slow.Tick != 2 {
		t.Errorf("Slowest = tick %d ok=%v, want tick 2 (survives eviction)", slow.Tick, ok)
	}
	if one := tr.Last(1); len(one) != 1 || one[0].Tick != 4 {
		t.Errorf("Last(1) = %+v, want just tick 4", one)
	}
}

func TestStageStatsAggregate(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 3; i++ {
		a := tr.StartTick(uint64(i), time.Now())
		r := a.Begin(Root, "preprocess")
		a.End(r, 10)
		a.Finish()
	}
	stats := tr.StageStats()
	byName := map[string]StageStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if byName["tick"].Count != 3 || byName["preprocess"].Count != 3 {
		t.Errorf("stage counts = %+v", byName)
	}
	if byName["tick"].Total < byName["preprocess"].Total {
		t.Errorf("tick total %v < preprocess total %v", byName["tick"].Total, byName["preprocess"].Total)
	}
	if stats[0].Name != "tick" {
		t.Errorf("stats not sorted by total desc: first = %q", stats[0].Name)
	}
	if byName["preprocess"].Mean() == 0 && byName["preprocess"].Total > 0 {
		t.Error("Mean() = 0 for non-empty stage")
	}
}

func TestTraceJSONAndRender(t *testing.T) {
	tr := NewTracer(4)
	a := tr.StartTick(9, time.Now())
	st := a.Scope(nil).Enter("locate", nil)
	st.ForkWorkers("addbatch", 2, 8, func(_, _ int) {})
	st.Exit(12)
	fin := a.Finish()

	raw, err := json.Marshal(fin)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != len(fin.Spans) || back.Tick != 9 {
		t.Errorf("JSON round trip lost spans: %d vs %d", len(back.Spans), len(fin.Spans))
	}

	out := fin.Render()
	for _, want := range []string{"tick 9", "locate", "addbatch", "×8 shards", "skew"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	table := RenderStageStats(tr.StageStats())
	if !strings.Contains(table, "locate") || !strings.Contains(table, "mean") {
		t.Errorf("stage table malformed:\n%s", table)
	}
}

func TestConcurrentFinishAndRead(t *testing.T) {
	// The tracer is read by HTTP handlers while the engine loop finishes
	// ticks; this must be race-clean (run under -race in CI).
	tr := NewTracer(8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			a := tr.StartTick(uint64(i), time.Now())
			r := a.Begin(Root, "stage")
			a.End(r, i)
			a.Finish()
		}
	}()
	for i := 0; i < 50; i++ {
		tr.Last(4)
		tr.Slowest()
		tr.StageStats()
		tr.TickCount()
	}
	<-done
}
