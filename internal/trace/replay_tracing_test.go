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

// TestReplayTracingSpanNames checks that one traced replay records the
// whole stage vocabulary — the top-level stages including publish, their
// sub-phases, and the parallel fan-outs with shard ids — and that every
// tick's parts add up to the whole: the top-level spans run one after
// another inside the root, so their durations sum to no more than its.
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
	reg := telemetry.New()
	if _, err := ReplayWithOptions(g.Alerts, g.Topo, cfg, ReplayOptions{
		Tick:      10 * time.Second,
		Tracer:    tracer,
		Telemetry: reg,
	}); err != nil {
		t.Fatal(err)
	}
	// One latency histogram per name: the seam's skynet_stage_* for the
	// top-level stages, the bridge's skynet_span_* for what is below them.
	hists := map[string]int64{}
	for _, m := range reg.Snapshot() {
		if m.Hist != nil {
			hists[m.Name] = m.Hist.Count
		}
	}
	for _, name := range []string{"preprocess", "locate", "evaluate", "sop", "publish"} {
		if hists["skynet_stage_"+name+"_seconds"] != tracer.TickCount() {
			t.Errorf("skynet_stage_%s_seconds has %d observations over %d ticks", name, hists["skynet_stage_"+name+"_seconds"], tracer.TickCount())
		}
		if _, dup := hists["skynet_span_"+name+"_seconds"]; dup {
			t.Errorf("skynet_span_%s_seconds duplicates skynet_stage_%s_seconds", name, name)
		}
	}
	for _, name := range []string{"classify", "sweep", "addbatch", "check", "expire", "refine_score"} {
		if hists["skynet_span_"+name+"_seconds"] == 0 {
			t.Errorf("skynet_span_%s_seconds never observed", name)
		}
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
		var parts time.Duration
		for i := range tr.Spans {
			if tr.Spans[i].Parent == int32(span.Root) {
				parts += tr.Spans[i].Dur
			}
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
		if parts <= 0 || parts > tr.Dur {
			t.Errorf("tick %d: top-level spans sum to %v, root is %v", tr.Tick, parts, tr.Dur)
		}
	}
	for _, name := range []string{
		"tick", "preprocess", "classify", "consolidate", "sweep",
		"locate", "addbatch", "addbatch_fan", "check", "expire",
		"components", "compcount", "evaluate", "refine_score", "sop",
		"publish", "observe",
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
