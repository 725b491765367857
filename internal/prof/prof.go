// Package prof is SkyNet's continuous runtime profiler: pprof label
// plumbing that attributes CPU samples to pipeline stages, a windowed
// background collector that turns those samples into skynet_prof_*
// telemetry and a retention-bounded on-disk archive, and a
// runtime/metrics sampler that feeds Go-runtime health (GC pauses, heap,
// scheduler latency) into the telemetry registry and tick-indexed TSDB.
//
// Label taxonomy (DESIGN.md §6): every labeled stage runs under a `stage`
// label carrying the stage's name in the one stage vocabulary — the five
// parallel fan-outs (classify, consolidate, addbatch_fan, expire,
// refine_score) and the SOP loop; worker goroutines additionally carry a
// `shard` label with their worker index; and while a flood episode is
// open every stage context also carries an `episode` label with the
// episode ID, so a CPU profile captured mid-flood can be sliced to
// exactly the work that flood caused.
//
// The labeler is built for the tick hot path: every label context is
// precomputed (rebuilt only on the rare episode open/close), so entering
// a stage is one atomic store plus one pprof.SetGoroutineLabels call —
// no allocation, no map construction. Worker goroutines inherit the
// spawning goroutine's label set automatically; a par spawn hook refines
// them with the worker's shard index.
package prof

import (
	"context"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"skynet/internal/par"
)

// stageNames is the labeled subset of the stage vocabulary, in pipeline
// order: span.Scope enters every stage by name, and the names listed
// here also set a pprof label. Each is a leaf — no labeled stage contains
// another stage — which is what lets Exit restore the base label set.
var stageNames = [...]string{
	"classify", "consolidate", "addbatch_fan", "expire", "refine_score", "sop",
}

// StageNames returns the stage label values in pipeline order — the
// stable vocabulary shared by the collector's telemetry, /api/profile,
// and skynet-top.
func StageNames() []string { return slices.Clone(stageNames[:]) }

// Label keys attached to profiled goroutines.
const (
	LabelStage   = "stage"
	LabelShard   = "shard"
	LabelEpisode = "episode"
)

// stageCtx is one stage's precomputed label contexts: the stage context
// for the orchestrating goroutine and one shard-refined context per
// worker slot.
type stageCtx struct {
	ctx    context.Context
	shards []context.Context
}

// active publishes the stage the engine goroutine is currently inside so
// the par spawn hook can refine freshly spawned workers with their shard
// label. Package-global because par's hook is: the engine runs one
// profiled pipeline at a time (the labeler's documented contract).
var active atomic.Pointer[stageCtx]

var hookOnce sync.Once

// labelWorker is the par spawn hook: stamp the worker goroutine with the
// active stage's shard-refined label context. Workers already inherited
// the stage (and episode) labels at spawn; this only adds the shard.
func labelWorker(worker int) {
	sc := active.Load()
	if sc == nil {
		return
	}
	if worker >= 0 && worker < len(sc.shards) {
		pprof.SetGoroutineLabels(sc.shards[worker])
		return
	}
	pprof.SetGoroutineLabels(sc.ctx)
}

// Labeler owns the precomputed pprof label contexts for one engine's
// pipeline. All methods are called from the engine goroutine only; at
// most one labeler should be active per process (the par spawn hook and
// the `active` publication point are package-global).
//
// Every method is nil-receiver safe, so callers hold an optional
// *Labeler field and invoke it unconditionally.
type Labeler struct {
	maxShards int
	episode   uint64
	base      context.Context
	stages    [len(stageNames)]stageCtx
}

// NewLabeler builds a labeler with shard contexts for worker indexes
// [0, maxShards) — pass the widest fan-out the engine runs (max of
// workers, preprocess shards, locator shards). It installs the par spawn
// hook on first use.
func NewLabeler(maxShards int) *Labeler {
	if maxShards < 1 {
		maxShards = 1
	}
	l := &Labeler{maxShards: maxShards}
	l.rebuild()
	hookOnce.Do(func() { par.SetSpawnHook(labelWorker) })
	return l
}

// rebuild recomputes every label context. Called at construction and on
// episode transitions only — WithLabels allocates, so none of this runs
// per tick.
func (l *Labeler) rebuild() {
	base := context.Background()
	if l.episode != 0 {
		base = pprof.WithLabels(base,
			pprof.Labels(LabelEpisode, strconv.FormatUint(l.episode, 10)))
	}
	l.base = base
	for s, name := range stageNames {
		ctx := pprof.WithLabels(base, pprof.Labels(LabelStage, name))
		shards := make([]context.Context, l.maxShards)
		for w := range shards {
			shards[w] = pprof.WithLabels(ctx, pprof.Labels(LabelShard, strconv.Itoa(w)))
		}
		l.stages[s] = stageCtx{ctx: ctx, shards: shards}
	}
}

// SetEpisode tags (id != 0) or untags (id == 0) every label context with
// a flood episode. Engine goroutine only; costs a context rebuild, which
// is fine at flood open/close frequency.
func (l *Labeler) SetEpisode(id uint64) {
	if l == nil || l.episode == id {
		return
	}
	l.episode = id
	l.rebuild()
}

// Enter marks the calling goroutine (and, via the spawn hook, any worker
// goroutines forked while inside) as running the named stage, and
// reports whether it did: false for a nil labeler and for the stages of
// the vocabulary that carry no label. Only a true Enter is paired with
// an Exit.
func (l *Labeler) Enter(name string) bool {
	if l == nil {
		return false
	}
	for s := range stageNames {
		if stageNames[s] == name {
			sc := &l.stages[s]
			active.Store(sc)
			pprof.SetGoroutineLabels(sc.ctx)
			return true
		}
	}
	return false
}

// Exit clears the stage label, restoring the base (episode-only) label
// set on the calling goroutine.
func (l *Labeler) Exit() {
	if l == nil {
		return
	}
	active.Store(nil)
	pprof.SetGoroutineLabels(l.base)
}
