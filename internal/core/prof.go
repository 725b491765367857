package core

import (
	"skynet/internal/prof"
)

// EnableProfiling attaches pprof stage labels to the pipeline: the
// labeler rides the stage seam, so the labeled stages of the vocabulary
// (the five fan-outs and the SOP loop) run under its precomputed `stage`
// (+ `shard`, + flood `episode`) label contexts and CPU, mutex, and
// block profiles attribute their samples to pipeline stages. Call before
// the first Tick; one labeler per process (it owns the par spawn hook).
func (e *Engine) EnableProfiling(l *prof.Labeler) { e.profL = l }

// MaxShards reports the widest fan-out any stage runs — the shard-label
// capacity a prof.Labeler for this engine needs.
func (e *Engine) MaxShards() int {
	n := e.workers
	if s := e.pre.Workers(); s > n {
		n = s
	}
	if s := e.loc.Workers(); s > n {
		n = s
	}
	return n
}

// EnableRuntimeMetrics attaches a runtime/metrics sampler: each Tick
// refreshes the skynet_runtime_ gauges (GC pauses, heap, goroutines,
// scheduler latency) right before the history sample is cut. The series
// are host-dependent and therefore excluded from deterministic replay
// snapshots by tsdb.DeterministicFilter.
func (e *Engine) EnableRuntimeMetrics(r *prof.Runtime) {
	e.rtm = r
}
