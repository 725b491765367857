package core

import (
	"skynet/internal/span"
	"skynet/internal/telemetry"
)

// spanMetrics bridges finished span trees into the telemetry registry:
// one latency histogram per sub-phase and fork name, plus fork-level
// shard-skew and queue-wait histograms. The top-level stages are not
// bridged — the stage seam already observes skynet_stage_<name>_seconds
// for them. Registered lazily because span names surface as they are
// first recorded; the per-name handle cache keeps the hot path off the
// registry lock after the first tick.
type spanMetrics struct {
	reg    *telemetry.Registry
	byName map[string]*telemetry.Histogram
	skew   *telemetry.Histogram
	wait   *telemetry.Histogram
}

func newSpanMetrics(reg *telemetry.Registry) *spanMetrics {
	lb := telemetry.LatencyBuckets()
	return &spanMetrics{
		reg:    reg,
		byName: make(map[string]*telemetry.Histogram),
		skew: reg.Histogram("skynet_span_fork_skew_seconds",
			"Per-fork shard imbalance: slowest minus fastest shard of one parallel fan-out.", lb),
		wait: reg.Histogram("skynet_span_queue_wait_seconds",
			"Time a fan-out task waited between fork open and a worker picking it up.", lb),
	}
}

// hist returns the latency histogram for one span name, registering
// skynet_span_<name>_seconds on first use.
func (m *spanMetrics) hist(name string) *telemetry.Histogram {
	if h, ok := m.byName[name]; ok {
		return h
	}
	h := m.reg.Histogram("skynet_span_"+name+"_seconds",
		"Wall time of one "+name+" span.", telemetry.LatencyBuckets())
	m.byName[name] = h
	return h
}

// observe feeds one finished trace into the histograms. Called serially
// among Tick's observers. The root span and its direct children are
// skipped — skynet_tick_seconds and skynet_stage_*_seconds cover them.
// A nil receiver or trace (no registry, no tracer) is a no-op.
func (m *spanMetrics) observe(tr *span.Trace) {
	if m == nil || tr == nil {
		return
	}
	// Fork groups are runs of same-parent same-name shard spans; spans
	// are recorded fork-contiguously, so one linear pass finds them.
	groupStart := -1
	var groupMin, groupMax float64
	flush := func() {
		if groupStart >= 0 && groupMax > groupMin {
			m.skew.Observe(groupMax - groupMin)
		}
		groupStart = -1
	}
	for i := 1; i < len(tr.Spans); i++ {
		sp := &tr.Spans[i]
		if sp.Parent == int32(span.Root) {
			flush()
			continue
		}
		secs := sp.Dur.Seconds()
		m.hist(sp.Name).Observe(secs)
		if sp.Shard < 0 {
			flush()
			continue
		}
		m.wait.Observe(sp.Wait.Seconds())
		prev := &tr.Spans[i-1]
		if groupStart < 0 || prev.Shard < 0 || prev.Name != sp.Name || prev.Parent != sp.Parent {
			flush()
			groupStart = i
			groupMin, groupMax = secs, secs
			continue
		}
		if secs < groupMin {
			groupMin = secs
		}
		if secs > groupMax {
			groupMax = secs
		}
	}
	flush()
}

// EnableTracing attaches a span tracer to the engine: every Tick records
// a span tree (stages, sub-phases, and parallel shard fan-outs) into the
// tracer's ring. When a telemetry registry is also attached (see
// EnableTelemetry), finished spans additionally feed per-phase latency,
// shard-skew, and queue-wait histograms. Call before the first Tick.
//
// Tracing never touches pipeline data: incident sets, IDs, and severity
// bits are bit-identical with and without it, at every worker count.
func (e *Engine) EnableTracing(tr *span.Tracer) {
	e.tracer = tr
	e.bridgeSpans()
}

// bridgeSpans creates the span-to-histogram bridge once the engine has
// both a tracer and a registry, in whichever order they were attached.
func (e *Engine) bridgeSpans() {
	if e.tracer != nil && e.reg != nil && e.spanTel == nil {
		e.spanTel = newSpanMetrics(e.reg)
	}
}

// Tracer returns the attached span tracer (nil when disabled).
func (e *Engine) Tracer() *span.Tracer { return e.tracer }
