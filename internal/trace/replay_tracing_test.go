package trace

import (
	"testing"
	"time"

	"skynet/internal/core"
	"skynet/internal/span"
	"skynet/internal/telemetry"
)

// TestReplayTracingBitEqual replays one generated trace with span tracing
// attached at workers {1, 2, 4, 8} and checks the incident population is
// bit-identical to the untraced serial reference — tracing must observe
// the pipeline without perturbing it. Under -race this also exercises the
// fork slot writes at real parallelism.
func TestReplayTracingBitEqual(t *testing.T) {
	gen := DefaultGenerateOptions()
	gen.Scenarios = 2
	gen.Window = 20 * time.Minute
	g, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	refEng, err := Replay(g.Alerts, g.Topo, cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ref := replayFingerprint(refEng)
	if ref == "" {
		t.Fatal("reference replay produced no incidents to compare")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := core.DefaultConfig()
		cfg.Workers = workers
		tracer := span.NewTracer(0)
		eng, err := ReplayWithOptions(g.Alerts, g.Topo, cfg, ReplayOptions{
			Tick:      10 * time.Second,
			Tracer:    tracer,
			Telemetry: telemetry.New(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := replayFingerprint(eng); got != ref {
			t.Errorf("workers=%d: traced replay diverged from untraced serial reference", workers)
		}
		if tracer.TickCount() == 0 {
			t.Fatalf("workers=%d: tracer recorded no ticks", workers)
		}
	}
}

// TestReplayTracingSpanNames checks that one traced replay records every
// pipeline stage the issue names: the stage spans, their sub-phases, and
// the parallel fan-outs with shard ids.
func TestReplayTracingSpanNames(t *testing.T) {
	gen := DefaultGenerateOptions()
	gen.Scenarios = 2
	gen.Window = 20 * time.Minute
	g, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 4
	tracer := span.NewTracer(0)
	if _, err := ReplayWithOptions(g.Alerts, g.Topo, cfg, ReplayOptions{
		Tick:   10 * time.Second,
		Tracer: tracer,
	}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	sharded := map[string]bool{}
	for _, st := range tracer.StageStats() {
		seen[st.Name] = true
	}
	slow, ok := tracer.Slowest()
	if !ok {
		t.Fatal("no slowest trace retained")
	}
	if slow.Dur <= 0 || len(slow.Spans) == 0 {
		t.Fatalf("slowest trace malformed: dur=%v spans=%d", slow.Dur, len(slow.Spans))
	}
	for _, tr := range tracer.Last(0) {
		addFan := 0
		for i := range tr.Spans {
			if tr.Spans[i].Shard >= 0 {
				sharded[tr.Spans[i].Name] = true
				if tr.Spans[i].Name == "addbatch_fan" {
					addFan++
				}
			}
		}
		// One AddBatch per tick: Workers absorb tasks plus one task per
		// node shard, however many incidents are open.
		if addFan != 0 && addFan != 2*cfg.Workers {
			t.Errorf("tick %d: addbatch_fan has %d tasks, want workers+shards = %d", tr.Tick, addFan, 2*cfg.Workers)
		}
	}
	for _, name := range []string{
		"tick", "preprocess", "classify", "consolidate", "sweep",
		"locate", "addbatch", "addbatch_fan", "check", "expire",
		"components", "compcount", "evaluate", "refine_score", "sop",
	} {
		if !seen[name] {
			t.Errorf("span %q never recorded; stages seen: %v", name, keys(seen))
		}
	}
	for _, name := range []string{"classify", "consolidate", "addbatch_fan", "expire", "refine_score"} {
		if !sharded[name] {
			t.Errorf("fork %q recorded no shard spans", name)
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
