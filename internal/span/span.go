// Package span is SkyNet's stage-level tracing layer: a low-overhead
// span tree recorded per engine tick, in the spirit of Dapper-style
// distributed tracers scaled down to one process. Where the telemetry
// registry answers "how long do ticks take on average", spans answer
// "where did THIS tick's time go" — every pipeline stage (preprocess,
// locate, evaluate, sop) and every parallel shard fan-out inside them
// becomes a timed node in a tree the operator can read back.
//
// Design constraints, in order:
//
//  1. Zero overhead when off. Instrumentation sites hold a nil *Active
//     or a zero Scope; every method is nil-safe and returns immediately,
//     so the uninstrumented pipeline takes one predictable branch per
//     site and no clock reads.
//  2. Race-free under the par fan-out. Shard spans are pre-allocated by
//     the owning goroutine before the fork; each worker writes only its
//     own slot (see Fork), so recording needs no locks on the hot path.
//  3. Bounded memory. Finished traces land in a fixed-size ring; the
//     slowest trace seen and per-stage aggregates are retained across
//     ring evictions so `skynet-replay -spans` can render the worst
//     tick of an arbitrarily long run.
//
// The Tracer is the retention side (ring, slowest, stage stats); Active
// is the single-tick builder; Scope is the engine's one stage seam — what
// a stage is entered through and what it hands to the stages inside it:
// Enter/Exit mark a serial stage (span, item count, pprof label, latency
// histogram, each where configured) and Fork runs a parallel one, its
// shards appearing as child spans with shard ids and queue-wait times.
// Stage names are one vocabulary (DESIGN.md §6): the span name is the
// pprof `stage` label value is the histogram's name segment.
package span

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"skynet/internal/par"
	"skynet/internal/prof"
	"skynet/internal/telemetry"
)

// Region identifies one span within an Active trace. The zero value is
// the root; None marks "no span" (returned by no-op calls when tracing
// is disabled).
type Region int32

// Root is the region of the tick's root span.
const Root Region = 0

// None is the invalid region returned by disabled instrumentation.
const None Region = -1

// Span is one timed region of a pipeline tick. Offsets are nanoseconds
// from the owning Trace's Start so a dumped ring stays meaningful
// without absolute clocks.
type Span struct {
	// Name labels the stage or phase ("preprocess", "classify", ...).
	Name string `json:"name"`
	// Shard is the task index within a parallel fork, or -1 for serial
	// spans. For forks that mix task kinds (the locator's incident+shard
	// fan-out) it is the raw task id; the fork's name says how to read it.
	Shard int `json:"shard"`
	// Parent is the index of the parent span in Trace.Spans (-1 for the
	// root).
	Parent int32 `json:"parent"`
	// Start is the offset from Trace.Start when the span began.
	Start time.Duration `json:"start_ns"`
	// Dur is the span's wall time.
	Dur time.Duration `json:"duration_ns"`
	// Wait, for fork shards, is how long the task sat queued between the
	// fork opening and a worker picking it up.
	Wait time.Duration `json:"wait_ns,omitempty"`
	// Items counts the units the span processed (alerts, incidents,
	// components...), when the instrumentation site reports one.
	Items int `json:"items,omitempty"`
}

// Trace is the finished span tree of one pipeline tick.
type Trace struct {
	// Tick is the engine's tick counter.
	Tick uint64 `json:"tick"`
	// Episode is the flood episode the tick belonged to (0 outside any
	// flood) — the join key between traces, metrics, and flood reports.
	Episode uint64 `json:"episode,omitempty"`
	// Time is the pipeline time of the tick (simulated under replay).
	Time time.Time `json:"time"`
	// Start is the wall-clock instant the tick began.
	Start time.Time `json:"start"`
	// Dur is the root span's wall time.
	Dur time.Duration `json:"duration_ns"`
	// Spans holds the tree in creation order; Spans[0] is the root.
	Spans []Span `json:"spans"`
}

// StageStat aggregates every span of one name across finished traces.
type StageStat struct {
	Name  string        `json:"name"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Mean returns the average span duration (0 when empty).
func (s StageStat) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// DefaultRingCap is the default number of recent tick traces retained —
// at the daemon's 10 s tick this is ~10 minutes of history, and it is
// what a flight-recorder dump preserves.
const DefaultRingCap = 64

// Tracer retains finished traces: a fixed ring of the most recent ones,
// the slowest trace ever finished, and per-stage aggregates. Safe for
// concurrent use; recording into an Active trace is lock-free and the
// lock is taken once per finished tick.
type Tracer struct {
	mu      sync.Mutex
	ring    []Trace
	start   int
	n       int
	slowest Trace
	hasSlow bool
	stages  map[string]*StageStat
	total   int64
}

// NewTracer creates a tracer retaining the last ringCap traces
// (DefaultRingCap when ringCap <= 0).
func NewTracer(ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Tracer{ring: make([]Trace, ringCap), stages: make(map[string]*StageStat)}
}

// StartTick opens the span tree for one tick. A nil tracer returns a nil
// *Active, on which every method is a no-op — instrumentation sites need
// no guards. The caller must Finish the returned trace before starting
// the next one.
func (t *Tracer) StartTick(tick uint64, now time.Time) *Active {
	if t == nil {
		return nil
	}
	a := &Active{tr: t}
	a.t.Tick = tick
	a.t.Time = now
	a.t.Start = time.Now()
	a.t.Spans = append(a.t.Spans, Span{Name: "tick", Shard: -1, Parent: -1})
	return a
}

// TickCount reports how many traces have been finished over the
// tracer's lifetime (not just those still in the ring).
func (t *Tracer) TickCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Last returns up to n of the most recent finished traces, oldest
// first. The traces are deep-copied; callers own them.
func (t *Tracer) Last(n int) []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.n {
		n = t.n
	}
	out := make([]Trace, 0, n)
	for i := t.n - n; i < t.n; i++ {
		out = append(out, copyTrace(t.ring[(t.start+i)%len(t.ring)]))
	}
	return out
}

// Slowest returns the trace with the largest root duration ever
// finished, surviving ring eviction. ok is false before the first
// Finish.
func (t *Tracer) Slowest() (Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.hasSlow {
		return Trace{}, false
	}
	return copyTrace(t.slowest), true
}

// StageStats returns the per-name span aggregates, largest total time
// first (name as tiebreaker, so the order is deterministic).
func (t *Tracer) StageStats() []StageStat {
	t.mu.Lock()
	out := make([]StageStat, 0, len(t.stages))
	for _, s := range t.stages {
		out = append(out, *s)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// finish retires one completed trace into the ring and the aggregates.
func (t *Tracer) finish(tr Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if t.n == len(t.ring) {
		t.start = (t.start + 1) % len(t.ring)
		t.n--
	}
	t.ring[(t.start+t.n)%len(t.ring)] = tr
	t.n++
	if !t.hasSlow || tr.Dur > t.slowest.Dur {
		// Copy: the ring slot may be overwritten in place on wraparound.
		t.slowest = copyTrace(tr)
		t.hasSlow = true
	}
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		st, ok := t.stages[sp.Name]
		if !ok {
			st = &StageStat{Name: sp.Name}
			t.stages[sp.Name] = st
		}
		st.Count++
		st.Total += sp.Dur
		if sp.Dur > st.Max {
			st.Max = sp.Dur
		}
	}
}

func copyTrace(tr Trace) Trace {
	cp := tr
	cp.Spans = make([]Span, len(tr.Spans))
	copy(cp.Spans, tr.Spans)
	return cp
}

// Active is the span tree of the tick in flight. All methods are
// nil-safe; spans are opened and sealed on the tick's owner goroutine
// only (shard slots inside a Scope.Fork are written by workers, but the
// slice itself only grows between forks).
type Active struct {
	tr *Tracer
	t  Trace
}

// Begin opens a child span under parent and returns its region.
func (a *Active) Begin(parent Region, name string) Region {
	if a == nil {
		return None
	}
	r := Region(len(a.t.Spans))
	a.t.Spans = append(a.t.Spans, Span{
		Name:   name,
		Shard:  -1,
		Parent: int32(parent),
		Start:  time.Since(a.t.Start),
	})
	return r
}

// End seals a span opened by Begin, recording its duration and item
// count. Ending None is a no-op.
func (a *Active) End(r Region, items int) {
	if a == nil || r <= None || int(r) >= len(a.t.Spans) {
		return
	}
	sp := &a.t.Spans[r]
	sp.Dur = time.Since(a.t.Start) - sp.Start
	sp.Items = items
}

// SetEpisode tags the in-flight trace with a flood episode ID (0 for
// none). Nil-safe, like every Active method.
func (a *Active) SetEpisode(id uint64) {
	if a == nil {
		return
	}
	a.t.Episode = id
}

// Scope returns the tick's root scope: stages entered through it open
// directly under the tick span and run under lab's pprof labels. Both
// the receiver and lab may be nil; with both nil it is the zero Scope.
func (a *Active) Scope(lab *prof.Labeler) Scope {
	return Scope{a: a, parent: Root, lab: lab}
}

// Finish seals the root span, retires the trace into the tracer, and
// returns the finished trace (nil when tracing is off). The Active must
// not be used afterwards.
func (a *Active) Finish() *Trace {
	if a == nil {
		return nil
	}
	a.t.Dur = time.Since(a.t.Start)
	a.t.Spans[0].Dur = a.t.Dur
	a.tr.finish(a.t)
	return &a.t
}

// Scope is the context a stage receives: stages entered through it open
// as children of the stage that handed it out, and the labeled ones of
// the vocabulary run under their pprof label. The zero Scope is inert —
// no span, no label, no clock read — so stages hold one unconditionally.
type Scope struct {
	a      *Active
	parent Region
	lab    *prof.Labeler
}

// Stage is one entered serial stage. Its embedded Scope is what the
// stage hands to the stages inside it.
type Stage struct {
	Scope
	hist    *telemetry.Histogram
	start   time.Time // set only when hist is
	labeled bool
}

// Enter opens the named stage under the scope: a child span when the
// scope traces, the stage's pprof label when the name is a labeled one,
// and — for the engine's top-level stages, which pass their
// skynet_stage_<name>_seconds histogram — one latency observation.
func (s Scope) Enter(name string, h *telemetry.Histogram) Stage {
	st := Stage{Scope: s, hist: h, labeled: s.lab.Enter(name)}
	st.parent = s.a.Begin(s.parent, name)
	if h != nil {
		st.start = time.Now()
	}
	return st
}

// Exit seals the stage with the number of units it processed.
func (st Stage) Exit(items int) {
	if st.labeled {
		st.lab.Exit()
	}
	st.a.End(st.parent, items)
	if st.hist != nil {
		st.hist.Observe(time.Since(st.start).Seconds())
	}
}

// Fork runs fn(i) for every i in [0, n) on up to workers goroutines as
// the named parallel stage: par.Do, with one shard span per task under
// the scope when it traces, and the stage's pprof label (refined per
// worker with its shard index) when the name is a labeled one. On the
// zero Scope it is exactly par.Do.
func (s Scope) Fork(name string, workers, n int, fn func(i int)) {
	labeled := s.lab.Enter(name)
	par.DoTimed(workers, n, s.shards(name, n), fn)
	if labeled {
		s.lab.Exit()
	}
}

// ForkWorkers is Fork for tasks that share per-worker scratch: fn also
// receives the claiming worker's index (par.DoWorkers).
func (s Scope) ForkWorkers(name string, workers, n int, fn func(worker, task int)) {
	labeled := s.lab.Enter(name)
	par.DoTimedWorkers(workers, n, s.shards(name, n), fn)
	if labeled {
		s.lab.Exit()
	}
}

// shards pre-allocates n shard spans under the scope's parent, one per
// task of an imminent fan-out, and returns the per-task completion
// callback par.DoTimed fills them through. It returns nil when the scope
// does not trace, which par.DoTimed treats as plain par.Do — so an
// untraced fan-out reads no clock.
func (s Scope) shards(name string, n int) func(i int, start time.Time, d time.Duration) {
	if s.a == nil || n <= 0 {
		return nil
	}
	f := &fork{a: s.a, base: int32(len(s.a.t.Spans)), n: n, start: time.Since(s.a.t.Start)}
	for i := 0; i < n; i++ {
		s.a.t.Spans = append(s.a.t.Spans, Span{
			Name:   name,
			Shard:  i,
			Parent: int32(s.parent),
			Start:  f.start,
		})
	}
	return f.record
}

// fork is a group of shard spans covering one parallel fan-out. Each
// task writes only its pre-allocated slot, so recording is race-free
// without locks.
type fork struct {
	a     *Active
	base  int32
	n     int
	start time.Duration // fork-open offset, for queue-wait accounting
}

// record fills task i's span slot. Called concurrently by par workers;
// each i is distinct, so slots never race.
func (f *fork) record(i int, start time.Time, d time.Duration) {
	if i < 0 || i >= f.n {
		return
	}
	sp := &f.a.t.Spans[f.base+int32(i)]
	sp.Start = start.Sub(f.a.t.Start)
	sp.Dur = d
	sp.Wait = sp.Start - f.start
	if sp.Wait < 0 {
		sp.Wait = 0
	}
}

// Render formats the trace as an indented tree for terminal output:
// each span's duration, share of the tick, and item count, with shard
// spans of one fork collapsed into a single summary line when they
// number more than a handful.
func (tr Trace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tick %d @ %s — %s total, %d spans\n",
		tr.Tick, tr.Time.Format(time.TimeOnly), fmtDur(tr.Dur), len(tr.Spans))
	children := make(map[int32][]int32)
	for i := 1; i < len(tr.Spans); i++ {
		p := tr.Spans[i].Parent
		children[p] = append(children[p], int32(i))
	}
	var walk func(idx int32, depth int)
	walk = func(idx int32, depth int) {
		kids := children[idx]
		i := 0
		for i < len(kids) {
			sp := &tr.Spans[kids[i]]
			// Collapse a run of same-name shard siblings into one line.
			j := i
			for sp.Shard >= 0 && j+1 < len(kids) &&
				tr.Spans[kids[j+1]].Shard >= 0 && tr.Spans[kids[j+1]].Name == sp.Name {
				j++
			}
			indent := strings.Repeat("  ", depth+1)
			if j > i {
				group := kids[i : j+1]
				var minD, maxD, sumW time.Duration
				minD = tr.Spans[group[0]].Dur
				for _, k := range group {
					d := tr.Spans[k].Dur
					if d < minD {
						minD = d
					}
					if d > maxD {
						maxD = d
					}
					sumW += tr.Spans[k].Wait
				}
				fmt.Fprintf(&b, "%s%s ×%d shards  max %s  min %s  skew %s  queue-wait Σ%s\n",
					indent, sp.Name, len(group), fmtDur(maxD), fmtDur(minD),
					fmtDur(maxD-minD), fmtDur(sumW))
			} else {
				fmt.Fprintf(&b, "%s%s  %s", indent, sp.Name, fmtDur(sp.Dur))
				if tr.Dur > 0 {
					fmt.Fprintf(&b, "  (%.1f%%)", 100*float64(sp.Dur)/float64(tr.Dur))
				}
				if sp.Items > 0 {
					fmt.Fprintf(&b, "  items=%d", sp.Items)
				}
				if sp.Shard >= 0 {
					fmt.Fprintf(&b, "  shard=%d", sp.Shard)
				}
				b.WriteByte('\n')
				walk(kids[i], depth+1)
			}
			i = j + 1
		}
	}
	walk(0, 0)
	return b.String()
}

// RenderStageStats formats per-stage aggregates as an aligned table.
func RenderStageStats(stats []StageStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-16s %8s %10s %10s %12s\n", "span", "count", "mean", "max", "total")
	for _, s := range stats {
		fmt.Fprintf(&b, "  %-16s %8d %10s %10s %12s\n",
			s.Name, s.Count, fmtDur(s.Mean()), fmtDur(s.Max), fmtDur(s.Total))
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
