package prof

import (
	"bytes"
	"context"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/par"
)

// goroutineProfile captures the live goroutine profile (debug=0 proto
// form, which carries pprof labels) and decodes it with the package's own
// parser.
func goroutineProfile(t *testing.T) *Profile {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatalf("write goroutine profile: %v", err)
	}
	p, err := ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("parse goroutine profile: %v", err)
	}
	return p
}

// clearLabels resets the test goroutine's label set so one test's stage
// labels cannot leak into the next.
func clearLabels() { pprof.SetGoroutineLabels(context.Background()) }

// captureUnderFanOut runs a `workers`-wide fan-out through fork and
// captures the goroutine profile from the last task to start, while the
// other workers are parked with their labels applied. Blocking the first
// workers pins each task to a distinct worker goroutine, so the capture
// must observe every shard index.
func captureUnderFanOut(t *testing.T, workers int, fork func(n int, task func(i int))) *Profile {
	t.Helper()
	var (
		arrived atomic.Int32
		release = make(chan struct{})
		prof    *Profile
	)
	fork(workers, func(i int) {
		if int(arrived.Add(1)) == workers {
			prof = goroutineProfile(t)
			close(release)
			return
		}
		<-release
	})
	if prof == nil {
		t.Fatal("fan-out never captured a profile")
	}
	return prof
}

// shardSet collects the shard label values of samples carrying the given
// stage label.
func shardSet(p *Profile, stage string) map[string]bool {
	shards := make(map[string]bool)
	for _, s := range p.Samples {
		if s.Labels[LabelStage] == stage {
			if shard, ok := s.Labels[LabelShard]; ok {
				shards[shard] = true
			}
		}
	}
	return shards
}

// TestStageLabelsSurviveParDo is the label-propagation contract: worker
// goroutines forked by par.Do while the engine goroutine is inside a
// labeled stage must carry the stage label plus their own shard index.
func TestStageLabelsSurviveParDo(t *testing.T) {
	defer clearLabels()
	l := NewLabeler(4)
	l.Enter("classify")
	defer l.Exit()

	p := captureUnderFanOut(t, 4, func(n int, task func(i int)) {
		par.Do(4, n, task)
	})
	shards := shardSet(p, "classify")
	for _, want := range []string{"0", "1", "2", "3"} {
		if !shards[want] {
			t.Errorf("par.Do: no goroutine labeled stage=classify shard=%s (got %v)", want, shards)
		}
	}
}

// TestStageLabelsSurviveParDoTimed repeats the propagation check through
// the timed fork variant (the spans-instrumented path the preprocessor
// and evaluator actually use).
func TestStageLabelsSurviveParDoTimed(t *testing.T) {
	defer clearLabels()
	l := NewLabeler(4)
	l.Enter("refine_score")
	defer l.Exit()

	var timed atomic.Int32
	done := func(i int, start time.Time, d time.Duration) { timed.Add(1) }
	p := captureUnderFanOut(t, 4, func(n int, task func(i int)) {
		par.DoTimed(4, n, done, task)
	})
	shards := shardSet(p, "refine_score")
	for _, want := range []string{"0", "1", "2", "3"} {
		if !shards[want] {
			t.Errorf("par.DoTimed: no goroutine labeled stage=refine_score shard=%s (got %v)", want, shards)
		}
	}
	if timed.Load() != 4 {
		t.Errorf("DoTimed ran %d timing callbacks, want 4", timed.Load())
	}
}

// TestEpisodeLabelTagsWorkers pins the flood-episode dimension: while an
// episode is open every stage context — and therefore every forked
// worker — must carry the episode label, and closing the episode must
// drop it from freshly built contexts.
func TestEpisodeLabelTagsWorkers(t *testing.T) {
	defer clearLabels()
	l := NewLabeler(2)
	l.SetEpisode(42)
	l.Enter("consolidate")

	p := captureUnderFanOut(t, 2, func(n int, task func(i int)) {
		par.Do(2, n, task)
	})
	l.Exit()

	found := false
	for _, s := range p.Samples {
		if s.Labels[LabelStage] == "consolidate" && s.Labels[LabelEpisode] == "42" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no worker carried episode=42 while the episode was open")
	}

	l.SetEpisode(0)
	l.Enter("consolidate")
	p = goroutineProfile(t)
	l.Exit()
	for _, s := range p.Samples {
		if s.Labels[LabelEpisode] == "42" {
			t.Error("episode=42 label survived SetEpisode(0)")
		}
	}
}

// TestLabelerNilSafe pins the optional-observer contract: a nil labeler
// must absorb every call so the engine hot path can invoke it
// unconditionally.
func TestLabelerNilSafe(t *testing.T) {
	var l *Labeler
	if l.Enter("sop") {
		t.Error("nil labeler reported entering a stage")
	}
	l.Exit()
	l.SetEpisode(7)
}

// TestStageNames pins the label vocabulary shared by the collector's
// telemetry, /api/profile, and skynet-top.
func TestStageNames(t *testing.T) {
	want := []string{
		"classify", "consolidate", "addbatch_fan",
		"expire", "refine_score", "sop",
	}
	got := StageNames()
	if len(got) != len(want) {
		t.Fatalf("StageNames() = %v, want %v", got, want)
	}
	defer clearLabels()
	l := NewLabeler(1)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stage %d = %q, want %q", i, got[i], want[i])
		}
		if !l.Enter(want[i]) {
			t.Errorf("Enter(%q) set no label", want[i])
		}
		l.Exit()
	}
	// The rest of the vocabulary is span-only: entering it is a no-op.
	if l.Enter("preprocess") {
		t.Error(`Enter("preprocess") set a label; only the names in StageNames do`)
	}
}
