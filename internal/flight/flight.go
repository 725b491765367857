// Package flight is SkyNet's always-on flight recorder: a small,
// lock-light watchdog that rides along with the pipeline, keeps a
// sliding window of recent tick durations, and — when something goes
// wrong — captures the evidence an operator needs *at the moment of the
// anomaly*, not minutes later when a human gets paged.
//
// The paper's failure mode is exactly the situation where post-hoc
// debugging is hardest: an alert flood degrades the very pipeline that
// is supposed to explain it. The recorder therefore watches a fixed set
// of anomaly triggers every tick:
//
//   - slo_burn          — the multi-window SLO burn-rate engine emitted a
//     fire/resolve event (it owns every latency judgement; the recorder's
//     own tick-latency p99 is reported, never judged)
//   - ingest_shed       — the daemon dropped raw alerts on a full queue
//   - journal_drop      — the lifecycle journal evicted events
//   - queue_high_water  — the ingest queue passed its high-water fraction
//   - prov_conservation — the provenance ledger went negative (alerts
//     terminal more than once: an accounting bug, never load)
//
// On a trigger's rising edge it dumps a self-contained snapshot — the
// recent span-trace ring, a /metrics snapshot, goroutine and heap
// profiles, and the active incident list — into a timestamped directory,
// rate-limited by a cooldown and a dump cap so a sustained storm cannot
// fill the disk. Health() summarizes the trigger states as a self-SLO
// verdict for GET /api/health, and SetNotify streams anomaly events into
// the SSE bus.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"skynet/internal/span"
	"skynet/internal/telemetry"
)

// Defaults for Config's zero fields.
const (
	DefaultSLOTickP99    = time.Second
	DefaultWindow        = 64
	DefaultQueueFraction = 0.9
	DefaultCooldown      = time.Minute
	DefaultMaxDumps      = 16
)

// Config tunes the recorder. The zero value is usable: defaults apply,
// and an empty Dir records triggers and health without writing dumps.
type Config struct {
	// Dir is the root directory dumps are written under (created on
	// demand). Empty disables dumping; triggers and health still work.
	Dir string
	// SLOTickP99 is the tick-latency SLO reported next to the sliding
	// window's p99 in Health; the burn-rate engine is what enforces it.
	// Default 1s.
	SLOTickP99 time.Duration
	// Window is how many recent tick durations the p99 is computed over.
	// Default 64 — at the daemon's 10s tick, ~10 minutes.
	Window int
	// QueueFraction is the ingest-queue high-water mark as a fraction of
	// capacity. Default 0.9.
	QueueFraction float64
	// Cooldown is the minimum spacing between dumps. Default 1m.
	Cooldown time.Duration
	// MaxDumps caps the dump directories written over the recorder's
	// lifetime. Default 16; negative means unlimited.
	MaxDumps int
	// MaxDumpDirs caps the dump directories retained on disk: after each
	// dump, the oldest flight-* directories under Dir beyond this count
	// are deleted (a sustained storm keeps only the newest evidence).
	// 0 disables retention pruning.
	MaxDumpDirs int
}

// Sources are the read-only taps the recorder samples every Observe.
// Any field may be nil/zero; its trigger or dump section is skipped.
type Sources struct {
	// Shed returns the cumulative count of raw alerts dropped at ingest
	// (queue full). A positive delta between ticks fires ingest_shed.
	Shed func() int64
	// JournalEvicted returns the journal's cumulative eviction count. A
	// positive delta fires journal_drop.
	JournalEvicted func() int64
	// Queue returns the ingest queue's current depth and capacity.
	Queue func() (depth, capacity int)
	// ProvInFlight returns the provenance ledger's in-flight count
	// (ingested − terminal). Negative fires prov_conservation.
	ProvInFlight func() int64
	// FloodClosed returns the flood detector's cumulative closed-episode
	// count. A positive delta fires flood_close, so every finished flood
	// episode captures a postmortem evidence dump.
	FloodClosed func() int64
	// Incidents returns a JSON-serializable snapshot of the active
	// incident population, captured at dump time.
	Incidents func() any
	// Metrics is the registry whose exposition is written into dumps.
	Metrics *telemetry.Registry
	// Tracer supplies the recent span-trace ring written into dumps.
	Tracer *span.Tracer
	// SLOBurnEvents returns the burn-rate engine's cumulative event count
	// (fire + resolve edges). A positive delta fires slo_burn.
	SLOBurnEvents func() int64
	// SLODetail describes the most recent burn event, joined into the
	// slo_burn trigger detail.
	SLODetail func() string
	// History writes the pre-trigger telemetry history window into dumps
	// as history.json — typically tsdb.DB.SnapshotTo, so every dump
	// carries how the pipeline trended INTO the anomaly, not just the
	// instant of it.
	History func(w io.Writer) error
	// Profiles drops extra profile files into a dump directory —
	// typically prof.Collector.WriteLatest, which copies the continuous
	// profiler's most recent stage-labeled CPU window. Must not block
	// (dumps run on the engine loop): copy captured evidence, never
	// capture fresh.
	Profiles func(dir string)
}

// Trigger names, stable identifiers used in health reports, events,
// metrics, and dump file names.
const (
	TriggerSLOBurn     = "slo_burn"
	TriggerIngestShed  = "ingest_shed"
	TriggerJournalDrop = "journal_drop"
	TriggerQueueHigh   = "queue_high_water"
	TriggerProvViolate = "prov_conservation"
	TriggerFloodClose  = "flood_close"
)

var triggerNames = []string{
	TriggerSLOBurn, TriggerIngestShed, TriggerJournalDrop,
	TriggerQueueHigh, TriggerProvViolate, TriggerFloodClose,
}

// TriggerState is the health view of one anomaly trigger.
type TriggerState struct {
	// Name is the trigger identifier.
	Name string `json:"name"`
	// Firing reports whether the trigger's condition held at the last
	// Observe (edge triggers: whether it fired at the last Observe).
	Firing bool `json:"firing"`
	// Fired counts rising edges over the recorder's lifetime.
	Fired int64 `json:"fired"`
	// Last is when the trigger last fired (zero when never).
	Last time.Time `json:"last,omitempty"`
	// Detail describes the most recent firing, with its measured values.
	Detail string `json:"detail,omitempty"`
}

// Health is the recorder's self-SLO verdict.
type Health struct {
	// OK is true when no trigger is firing.
	OK bool `json:"ok"`
	// Degraded lists the names of currently firing triggers.
	Degraded []string `json:"degraded,omitempty"`
	// TickP99 is the current sliding-window tick latency p99.
	TickP99 time.Duration `json:"tick_p99_ns"`
	// SLOTickP99 is the configured latency SLO.
	SLOTickP99 time.Duration `json:"slo_tick_p99_ns"`
	// Ticks counts Observe calls over the recorder's lifetime.
	Ticks int64 `json:"ticks"`
	// Dumps counts dump directories written.
	Dumps int64 `json:"dumps"`
	// LastDump is the path of the most recent dump directory.
	LastDump string `json:"last_dump,omitempty"`
	// Triggers is the per-trigger state, in a fixed order.
	Triggers []TriggerState `json:"triggers"`
}

// Event is one anomaly notification, emitted on a trigger's rising edge.
type Event struct {
	// Time is the pipeline time of the Observe that fired the trigger.
	Time time.Time `json:"time"`
	// Trigger is the trigger name.
	Trigger string `json:"trigger"`
	// Detail describes the firing condition with its measured values.
	Detail string `json:"detail"`
	// DumpDir is the dump directory written for this firing (empty when
	// dumping is disabled, rate-limited, or capped).
	DumpDir string `json:"dump_dir,omitempty"`
}

// Recorder is the flight recorder. Observe must be called from one
// goroutine (the engine loop); Health, SetNotify, and RegisterMetrics
// are safe from any goroutine.
type Recorder struct {
	cfg Config
	src Sources

	mu       sync.Mutex
	window   []time.Duration // tick-duration ring
	wstart   int
	wn       int
	ticks    int64
	p99      time.Duration
	triggers map[string]*TriggerState

	lastShed        int64
	lastEvicted     int64
	lastFloodClosed int64
	lastSLOBurn     int64

	dumps     int64
	lastDump  string
	lastDumpT time.Time
	hasDumped bool
	dumpSeq   int

	notify func(Event)
}

// New builds a recorder over the given sources, applying defaults to
// zero Config fields.
func New(cfg Config, src Sources) *Recorder {
	if cfg.SLOTickP99 <= 0 {
		cfg.SLOTickP99 = DefaultSLOTickP99
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.QueueFraction <= 0 || cfg.QueueFraction > 1 {
		cfg.QueueFraction = DefaultQueueFraction
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.MaxDumps == 0 {
		cfg.MaxDumps = DefaultMaxDumps
	}
	r := &Recorder{
		cfg:      cfg,
		src:      src,
		window:   make([]time.Duration, cfg.Window),
		triggers: make(map[string]*TriggerState, len(triggerNames)),
	}
	for _, name := range triggerNames {
		r.triggers[name] = &TriggerState{Name: name}
	}
	if src.Shed != nil {
		r.lastShed = src.Shed()
	}
	if src.JournalEvicted != nil {
		r.lastEvicted = src.JournalEvicted()
	}
	if src.FloodClosed != nil {
		r.lastFloodClosed = src.FloodClosed()
	}
	if src.SLOBurnEvents != nil {
		r.lastSLOBurn = src.SLOBurnEvents()
	}
	return r
}

// SetNotify installs the anomaly event callback (the SSE bus tap). The
// callback runs on the Observe goroutine, outside the recorder's lock.
func (r *Recorder) SetNotify(fn func(Event)) {
	r.mu.Lock()
	r.notify = fn
	r.mu.Unlock()
}

// Observe feeds one finished tick into the recorder: its duration joins
// the sliding window, every trigger is evaluated, and rising edges dump
// and notify. now is pipeline time (wall in the daemon, simulated under
// replay); dur is the tick's measured wall time.
func (r *Recorder) Observe(now time.Time, dur time.Duration) {
	r.mu.Lock()
	r.ticks++
	if r.wn == len(r.window) {
		r.wstart = (r.wstart + 1) % len(r.window)
		r.wn--
	}
	r.window[(r.wstart+r.wn)%len(r.window)] = dur
	r.wn++
	r.p99 = r.windowP99()

	var fired []Event
	edge := func(name string, firing bool, detail string) {
		st := r.triggers[name]
		rising := firing && !st.Firing
		st.Firing = firing
		if firing {
			st.Detail = detail
		}
		if rising {
			st.Fired++
			st.Last = now
			fired = append(fired, Event{Time: now, Trigger: name, Detail: detail})
		}
	}

	if r.src.SLOBurnEvents != nil {
		// The burn-rate engine owns latency (and more) judgement; the
		// recorder just converts its event stream into dump triggers.
		cur := r.src.SLOBurnEvents()
		d := cur - r.lastSLOBurn
		r.lastSLOBurn = cur
		detail := ""
		if d > 0 && r.src.SLODetail != nil {
			detail = ": " + r.src.SLODetail()
		}
		edge(TriggerSLOBurn, d > 0,
			fmt.Sprintf("slo burn-rate engine emitted %d events (%d total)%s", d, cur, detail))
	}

	if r.src.Shed != nil {
		cur := r.src.Shed()
		d := cur - r.lastShed
		r.lastShed = cur
		edge(TriggerIngestShed, d > 0,
			fmt.Sprintf("ingest queue shed %d raw alerts since last tick (%d total)", d, cur))
	}
	if r.src.JournalEvicted != nil {
		cur := r.src.JournalEvicted()
		d := cur - r.lastEvicted
		r.lastEvicted = cur
		edge(TriggerJournalDrop, d > 0,
			fmt.Sprintf("journal evicted %d events since last tick (%d total)", d, cur))
	}
	if r.src.Queue != nil {
		depth, capacity := r.src.Queue()
		high := capacity > 0 && float64(depth) >= r.cfg.QueueFraction*float64(capacity)
		edge(TriggerQueueHigh, high,
			fmt.Sprintf("ingest queue depth %d/%d ≥ %.0f%% high water", depth, capacity, 100*r.cfg.QueueFraction))
	}
	if r.src.ProvInFlight != nil {
		fl := r.src.ProvInFlight()
		edge(TriggerProvViolate, fl < 0,
			fmt.Sprintf("provenance conservation violated: in-flight %d < 0", fl))
	}
	if r.src.FloodClosed != nil {
		cur := r.src.FloodClosed()
		d := cur - r.lastFloodClosed
		r.lastFloodClosed = cur
		edge(TriggerFloodClose, d > 0,
			fmt.Sprintf("flood episode closed (%d episodes total): capturing postmortem evidence", cur))
	}

	// Rate-limit dumping, not detection: at most one dump per cooldown,
	// capped over the lifetime. The first firing in a burst carries the
	// dump; the rest are events only.
	var dumpDir string
	if len(fired) > 0 && r.cfg.Dir != "" &&
		(r.cfg.MaxDumps < 0 || r.dumps < int64(r.cfg.MaxDumps)) &&
		(!r.hasDumped || now.Sub(r.lastDumpT) >= r.cfg.Cooldown) {
		r.dumpSeq++
		dumpDir = filepath.Join(r.cfg.Dir,
			fmt.Sprintf("flight-%s-%03d", now.UTC().Format("20060102T150405"), r.dumpSeq))
		r.dumps++
		r.lastDump = dumpDir
		r.lastDumpT = now
		r.hasDumped = true
		for i := range fired {
			fired[i].DumpDir = dumpDir
		}
	}
	notify := r.notify
	health := r.healthLocked()
	r.mu.Unlock()

	// Dump and notify outside the lock: the incident snapshot callback
	// may take the engine lock, and the SSE bus takes its own.
	if dumpDir != "" {
		r.writeDump(dumpDir, fired, health)
	}
	if notify != nil {
		for _, ev := range fired {
			notify(ev)
		}
	}
}

// windowP99 computes the p99 of the current window. Caller holds mu.
func (r *Recorder) windowP99() time.Duration {
	if r.wn == 0 {
		return 0
	}
	buf := make([]time.Duration, r.wn)
	for i := 0; i < r.wn; i++ {
		buf[i] = r.window[(r.wstart+i)%len(r.window)]
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	rank := (99*r.wn + 99) / 100 // ceil(0.99·n)
	if rank < 1 {
		rank = 1
	}
	if rank > r.wn {
		rank = r.wn
	}
	return buf[rank-1]
}

// Health returns the current self-SLO verdict.
func (r *Recorder) Health() Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthLocked()
}

func (r *Recorder) healthLocked() Health {
	h := Health{
		OK:         true,
		TickP99:    r.p99,
		SLOTickP99: r.cfg.SLOTickP99,
		Ticks:      r.ticks,
		Dumps:      r.dumps,
		LastDump:   r.lastDump,
		Triggers:   make([]TriggerState, 0, len(triggerNames)),
	}
	for _, name := range triggerNames {
		st := *r.triggers[name]
		h.Triggers = append(h.Triggers, st)
		if st.Firing {
			h.OK = false
			h.Degraded = append(h.Degraded, name)
		}
	}
	return h
}

// RegisterMetrics exposes the recorder's own state on a registry.
func (r *Recorder) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("skynet_flight_degraded",
		"1 when any flight-recorder anomaly trigger is firing, else 0.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			for _, st := range r.triggers {
				if st.Firing {
					return 1
				}
			}
			return 0
		})
	reg.GaugeFunc("skynet_flight_tick_p99_seconds",
		"Sliding-window tick latency p99 watched by the flight recorder.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.p99.Seconds()
		})
	reg.CounterFunc("skynet_flight_dumps_total",
		"Flight-recorder dump directories written.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(r.dumps)
		})
	for _, name := range triggerNames {
		st := r.triggers[name]
		reg.CounterFunc("skynet_flight_trigger_"+name+"_total",
			"Rising edges of the "+name+" flight-recorder trigger.",
			func() float64 {
				r.mu.Lock()
				defer r.mu.Unlock()
				return float64(st.Fired)
			})
	}
}

// dumpManifest is the trigger.json payload: why the dump happened and
// what the recorder believed at that moment.
type dumpManifest struct {
	Time     time.Time `json:"time"`
	Triggers []Event   `json:"triggers"`
	Health   Health    `json:"health"`
}

// writeDump captures one snapshot directory. Best-effort: a failing
// section is skipped (written as an .err file) rather than aborting the
// pipeline — the recorder must never take the patient down with it.
func (r *Recorder) writeDump(dir string, fired []Event, health Health) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	writeErr := func(name string, err error) {
		_ = os.WriteFile(filepath.Join(dir, name+".err"), []byte(err.Error()+"\n"), 0o644)
	}
	writeJSON := func(name string, v any) {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			writeErr(name, err)
			return
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
			writeErr(name, err)
		}
	}
	writeJSON("trigger.json", dumpManifest{Time: health.timeOf(fired), Triggers: fired, Health: health})
	if r.src.Tracer != nil {
		writeJSON("spans.json", r.src.Tracer.Last(0))
	}
	if r.src.Metrics != nil {
		f, err := os.Create(filepath.Join(dir, "metrics.prom"))
		if err == nil {
			err = r.src.Metrics.Expose(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			writeErr("metrics.prom", err)
		}
	}
	if r.src.Incidents != nil {
		writeJSON("incidents.json", r.src.Incidents())
	}
	if r.src.History != nil {
		f, err := os.Create(filepath.Join(dir, "history.json"))
		if err == nil {
			err = r.src.History(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			writeErr("history.json", err)
		}
	}
	if f, err := os.Create(filepath.Join(dir, "goroutines.txt")); err == nil {
		_ = pprof.Lookup("goroutine").WriteTo(f, 2)
		_ = f.Close()
	}
	if f, err := os.Create(filepath.Join(dir, "heap.pprof")); err == nil {
		_ = pprof.WriteHeapProfile(f)
		_ = f.Close()
	}
	// Contention snapshots ride along (cheap; empty unless the daemon
	// enabled -mutex-fraction / -block-rate), then the profiler's latest
	// labeled CPU window via the Profiles hook.
	for _, name := range []string{"mutex", "block"} {
		if p := pprof.Lookup(name); p != nil {
			if f, err := os.Create(filepath.Join(dir, name+".pprof")); err == nil {
				_ = p.WriteTo(f, 0)
				_ = f.Close()
			}
		}
	}
	if r.src.Profiles != nil {
		r.src.Profiles(dir)
	}
	r.pruneDumps()
}

// pruneDumps enforces Config.MaxDumpDirs: the oldest flight-* dump
// directories under Dir beyond the cap are deleted, so a long-running
// daemon riding out a storm keeps the newest evidence instead of
// filling the disk. Dump names sort chronologically (UTC timestamp plus
// a monotonic sequence), so lexicographic order is age order.
func (r *Recorder) pruneDumps() {
	if r.cfg.MaxDumpDirs <= 0 || r.cfg.Dir == "" {
		return
	}
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return
	}
	var dumps []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "flight-") {
			dumps = append(dumps, e.Name())
		}
	}
	if len(dumps) <= r.cfg.MaxDumpDirs {
		return
	}
	sort.Strings(dumps)
	for _, name := range dumps[:len(dumps)-r.cfg.MaxDumpDirs] {
		_ = os.RemoveAll(filepath.Join(r.cfg.Dir, name))
	}
}

// timeOf picks the manifest timestamp from the firing events.
func (Health) timeOf(fired []Event) time.Time {
	if len(fired) > 0 {
		return fired[0].Time
	}
	return time.Time{}
}
