package prof

import (
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"skynet/internal/telemetry"
)

// Runtime samples the Go runtime's own health via runtime/metrics and
// publishes it through the telemetry registry, from where the TSDB
// sampler gives it tick-indexed history:
//
//	skynet_runtime_gc_pause_max_seconds     worst GC pause since last refresh
//	skynet_runtime_gc_cycles_total          completed GC cycles
//	skynet_runtime_heap_live_bytes          live heap objects
//	skynet_runtime_heap_goal_bytes          GC pacer heap goal
//	skynet_runtime_goroutines               live goroutines
//	skynet_runtime_sched_latency_p99_seconds  p99 runnable-wait since last refresh
//	skynet_runtime_mutex_wait_seconds       cumulative mutex wait (all goroutines)
//
// Determinism contract (DESIGN.md §6): everything here measures the
// host machine, not the alert stream, so the skynet_runtime_ prefix is
// excluded by tsdb.DeterministicFilter — replay history snapshots stay
// byte-identical with the sampler enabled. The daemon's unfiltered store
// records them all.
//
// Refresh is called once per tick from the engine goroutine: one
// metrics.Read over a fixed sample slice, zero steady-state allocations.
type Runtime struct {
	samples []metrics.Sample

	// histogram delta state: previous cumulative bucket counts
	prevPause []uint64
	prevSched []uint64

	prevCycles    uint64
	prevMutexWait float64

	gcPauseMax *telemetry.Gauge
	gcCycles   *telemetry.Counter
	heapLive   *telemetry.Gauge
	heapGoal   *telemetry.Gauge
	goroutines *telemetry.Gauge
	schedP99   *telemetry.Gauge
	mutexWait  *telemetry.Gauge
}

// Indexes into Runtime.samples — keep in sync with runtimeMetricNames.
const (
	rmGCPauses = iota
	rmGCCycles
	rmHeapLive
	rmHeapGoal
	rmGoroutines
	rmSchedLat
	rmMutexWait
	numRuntimeMetrics
)

var runtimeMetricNames = [numRuntimeMetrics]string{
	rmGCPauses:   "/gc/pauses:seconds",
	rmGCCycles:   "/gc/cycles/total:gc-cycles",
	rmHeapLive:   "/memory/classes/heap/objects:bytes",
	rmHeapGoal:   "/gc/heap/goal:bytes",
	rmGoroutines: "/sched/goroutines:goroutines",
	rmSchedLat:   "/sched/latencies:seconds",
	rmMutexWait:  "/sync/mutex/wait/total:seconds",
}

// NewRuntime registers the skynet_runtime_ series on reg and returns the
// sampler. The first Refresh establishes histogram baselines.
func NewRuntime(reg *telemetry.Registry) *Runtime {
	r := &Runtime{samples: make([]metrics.Sample, numRuntimeMetrics)}
	for i := range r.samples {
		r.samples[i].Name = runtimeMetricNames[i]
	}
	r.gcPauseMax = reg.Gauge("skynet_runtime_gc_pause_max_seconds",
		"Worst GC stop-the-world pause observed since the previous tick.")
	r.gcCycles = reg.Counter("skynet_runtime_gc_cycles_total",
		"Completed GC cycles.")
	r.heapLive = reg.Gauge("skynet_runtime_heap_live_bytes",
		"Bytes of live heap objects.")
	r.heapGoal = reg.Gauge("skynet_runtime_heap_goal_bytes",
		"GC pacer heap-size goal.")
	r.goroutines = reg.Gauge("skynet_runtime_goroutines",
		"Live goroutines.")
	r.schedP99 = reg.Gauge("skynet_runtime_sched_latency_p99_seconds",
		"p99 time goroutines spent runnable-but-waiting since the previous tick.")
	r.mutexWait = reg.Gauge("skynet_runtime_mutex_wait_seconds",
		"Cumulative time goroutines have blocked on mutexes.")
	r.Refresh()
	return r
}

// Refresh re-reads the runtime metrics and updates the registry. Engine
// goroutine, once per tick. Nil-receiver safe.
func (r *Runtime) Refresh() {
	if r == nil {
		return
	}
	metrics.Read(r.samples)

	if h, ok := histValue(&r.samples[rmGCPauses]); ok {
		max, prev := histDeltaMax(h, r.prevPause)
		r.prevPause = prev
		r.gcPauseMax.Set(max)
	}
	if v, ok := uintValue(&r.samples[rmGCCycles]); ok {
		if v > r.prevCycles {
			r.gcCycles.Add(int64(v - r.prevCycles))
		}
		r.prevCycles = v
	}
	if v, ok := uintValue(&r.samples[rmHeapLive]); ok {
		r.heapLive.Set(float64(v))
	}
	if v, ok := uintValue(&r.samples[rmHeapGoal]); ok {
		r.heapGoal.Set(float64(v))
	}
	if v, ok := uintValue(&r.samples[rmGoroutines]); ok {
		r.goroutines.Set(float64(v))
	}
	if h, ok := histValue(&r.samples[rmSchedLat]); ok {
		p99, prev := histDeltaQuantile(h, r.prevSched, 0.99)
		r.prevSched = prev
		r.schedP99.Set(p99)
	}
	if s := &r.samples[rmMutexWait]; s.Value.Kind() == metrics.KindFloat64 {
		v := s.Value.Float64()
		if v >= r.prevMutexWait {
			r.mutexWait.Set(v)
			r.prevMutexWait = v
		}
	}
}

func uintValue(s *metrics.Sample) (uint64, bool) {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0, false
	}
	return s.Value.Uint64(), true
}

func histValue(s *metrics.Sample) (*metrics.Float64Histogram, bool) {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return nil, false
	}
	h := s.Value.Float64Histogram()
	return h, h != nil
}

// bucketUpper returns a finite representative value for bucket i: its
// upper edge, falling back to the lower edge when the upper is +Inf.
func bucketUpper(h *metrics.Float64Histogram, i int) float64 {
	hi := h.Buckets[i+1]
	if math.IsInf(hi, 1) {
		return h.Buckets[i]
	}
	return hi
}

// histDeltaMax returns the upper edge of the highest bucket that gained
// counts since prev (0 when none did), plus the new cumulative counts to
// carry forward. The deltas are computed before snapshotCounts runs:
// snapshotCounts reuses prev's backing array, so reading prev afterwards
// would compare the histogram against itself.
func histDeltaMax(h *metrics.Float64Histogram, prev []uint64) (float64, []uint64) {
	max := 0.0
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if delta(h.Counts[i], prev, i) > 0 {
			max = bucketUpper(h, i)
			break
		}
	}
	return max, snapshotCounts(h, prev)
}

// histDeltaQuantile returns quantile q of the events added since prev
// (0 when no events were added), plus the new cumulative counts. Like
// histDeltaMax, it must finish reading prev before snapshotCounts
// overwrites it in place.
func histDeltaQuantile(h *metrics.Float64Histogram, prev []uint64, q float64) (float64, []uint64) {
	var total uint64
	for i := range h.Counts {
		total += delta(h.Counts[i], prev, i)
	}
	if total == 0 {
		return 0, snapshotCounts(h, prev)
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	val := bucketUpper(h, len(h.Counts)-1)
	var cum uint64
	for i := range h.Counts {
		cum += delta(h.Counts[i], prev, i)
		if cum >= rank {
			val = bucketUpper(h, i)
			break
		}
	}
	return val, snapshotCounts(h, prev)
}

func delta(cur uint64, prev []uint64, i int) uint64 {
	if i < len(prev) && cur >= prev[i] {
		return cur - prev[i]
	}
	return cur
}

// snapshotCounts copies h's cumulative counts, reusing prev's backing
// array when the shape matches (it always does after the first call).
func snapshotCounts(h *metrics.Float64Histogram, prev []uint64) []uint64 {
	if cap(prev) < len(h.Counts) {
		prev = make([]uint64, len(h.Counts))
	}
	prev = prev[:len(h.Counts)]
	copy(prev, h.Counts)
	return prev
}

// RuntimeStats is the /api/health runtime panel: the handful of numbers
// a dashboard needs to judge process health from a single probe.
type RuntimeStats struct {
	Goroutines    int     `json:"goroutines"`
	HeapLiveBytes uint64  `json:"heap_live_bytes"`
	HeapSysBytes  uint64  `json:"heap_sys_bytes"`
	GCCycles      uint32  `json:"gc_cycles"`
	LastGCPauseNs uint64  `json:"last_gc_pause_ns"`
	LastGCUnixNs  int64   `json:"last_gc_unix_ns,omitempty"`
	GCCPUFraction float64 `json:"gc_cpu_fraction"`
}

// ReadRuntimeStats snapshots the runtime panel. Cheap enough to run per
// HTTP request (one ReadMemStats), no sampler required.
func ReadRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := RuntimeStats{
		Goroutines:    runtime.NumGoroutine(),
		HeapLiveBytes: ms.HeapAlloc,
		HeapSysBytes:  ms.HeapSys,
		GCCycles:      ms.NumGC,
		GCCPUFraction: ms.GCCPUFraction,
	}
	if ms.NumGC > 0 {
		st.LastGCPauseNs = ms.PauseNs[(ms.NumGC+255)%256]
		if ms.LastGC <= math.MaxInt64 {
			st.LastGCUnixNs = int64(ms.LastGC)
		}
	}
	return st
}

// GCPauseDuration is LastGCPauseNs as a time.Duration, for renderers.
func (s RuntimeStats) GCPauseDuration() time.Duration {
	return time.Duration(s.LastGCPauseNs)
}
