package prof

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/telemetry"
)

// Collector is the continuous profiler's background loop: on a cadence
// it captures a short windowed CPU profile (plus heap, mutex, and block
// snapshots), attributes the CPU samples to pipeline stages via their
// pprof labels, publishes per-stage fractions as skynet_prof_* telemetry,
// and archives the window to a retention-bounded directory using the
// flight recorder's delete-oldest idiom.
//
// Windows are short (default 5s) on a long cadence (default 60s), so the
// duty cycle — and therefore the steady-state profiling overhead — stays
// under 10%, and zero between windows. The engine hot path never blocks
// on the collector: capture runs on its own goroutine, and WriteLatest
// (the flight-dump hook) copies the already-captured window instead of
// starting a new one.
type Collector struct {
	cfg CollectorConfig

	stageGauges map[string]*telemetry.Gauge
	windowsCtr  *telemetry.Counter
	errorsCtr   *telemetry.Counter
	windowCPU   *telemetry.Gauge

	startOnce sync.Once
	started   atomic.Bool
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}

	mu        sync.Mutex
	windows   []ProfileWindow // oldest first, bounded by cfg.Keep
	latestCPU []byte          // raw pprof bytes of the last good CPU window
	seq       int
	captures  int64
	errors    int64
	prevMutex lookupTotals
	prevBlock lookupTotals
}

// CollectorConfig configures a Collector; zero values take defaults.
type CollectorConfig struct {
	// Dir archives one subdirectory per window ("prof-<stamp>-<seq>").
	// Empty disables archiving; capture and telemetry stay on.
	Dir string
	// Interval is the start-to-start capture cadence (default 60s).
	Interval time.Duration
	// Window is the CPU capture length (default 5s). Clamped below
	// Interval.
	Window time.Duration
	// MaxWindows bounds the on-disk archive; the oldest window
	// directories are deleted first (default 16).
	MaxWindows int
	// Keep bounds the in-memory window list served by /api/profile
	// (default 32).
	Keep int
	// Registry receives skynet_prof_* metrics. Optional.
	Registry *telemetry.Registry
}

func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.Interval <= 0 {
		c.Interval = time.Minute
	}
	if c.Window <= 0 {
		c.Window = 5 * time.Second
	}
	if c.Window >= c.Interval {
		c.Window = c.Interval / 2
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 16
	}
	if c.Keep <= 0 {
		c.Keep = 32
	}
	return c
}

// StageCPUSample is one stage's share of a window's sampled CPU.
type StageCPUSample struct {
	Stage    string  `json:"stage"`
	CPUNanos int64   `json:"cpu_nanos"`
	Fraction float64 `json:"fraction"`
}

// ProfileWindow is one captured window's summary — the /api/profile and
// window.json shape.
type ProfileWindow struct {
	Seq             int              `json:"seq"`
	Start           time.Time        `json:"start"`
	DurationNanos   int64            `json:"duration_nanos"`
	CPUSampledNanos int64            `json:"cpu_sampled_nanos"`
	Stages          []StageCPUSample `json:"stages,omitempty"`
	MutexDelayNanos int64            `json:"mutex_delay_nanos,omitempty"`
	BlockDelayNanos int64            `json:"block_delay_nanos,omitempty"`
	Dir             string           `json:"dir,omitempty"`
	Err             string           `json:"error,omitempty"`
}

// lookupTotals carries a contention profile's cumulative totals so a
// window can report deltas.
type lookupTotals struct {
	contentions int64
	delayNanos  int64
}

// NewCollector builds a collector. Per-stage gauges are registered
// eagerly for every known stage (plus the unlabeled bucket) so the
// registry revision stays stable once the pipeline is running.
func NewCollector(cfg CollectorConfig) *Collector {
	c := &Collector{
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if reg := c.cfg.Registry; reg != nil {
		c.windowsCtr = reg.Counter("skynet_prof_windows_total",
			"Profile windows captured by the continuous profiler.")
		c.errorsCtr = reg.Counter("skynet_prof_capture_errors_total",
			"Profile windows that failed to capture (e.g. a competing CPU profile).")
		c.windowCPU = reg.Gauge("skynet_prof_window_cpu_seconds",
			"CPU seconds sampled in the most recent profile window.")
		c.stageGauges = make(map[string]*telemetry.Gauge, len(stageNames)+1)
		for _, name := range StageNames() {
			c.stageGauges[name] = reg.GaugeWith("skynet_prof_stage_cpu_fraction",
				telemetry.Label(LabelStage, name),
				"Fraction of sampled CPU attributed to each pipeline stage in the most recent profile window.")
		}
		c.stageGauges[otherStage] = reg.GaugeWith("skynet_prof_stage_cpu_fraction",
			telemetry.Label(LabelStage, otherStage),
			"Fraction of sampled CPU attributed to each pipeline stage in the most recent profile window.")
	}
	return c
}

// otherStage buckets CPU samples with no stage label — GC, ingest,
// HTTP serving, the collector itself.
const otherStage = "other"

// Start launches the capture loop: one window immediately, then one per
// Interval. Repeated calls are no-ops.
func (c *Collector) Start() {
	c.startOnce.Do(func() {
		c.started.Store(true)
		go c.run()
	})
}

// Stop halts the loop and waits for an in-flight window to finish. Safe
// on a never-started collector: there is no run goroutine to drain, so
// it returns immediately instead of blocking on done.
func (c *Collector) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	if c.started.Load() {
		<-c.done
	}
}

func (c *Collector) run() {
	defer close(c.done)
	for {
		start := time.Now()
		c.CaptureWindow()
		wait := c.cfg.Interval - time.Since(start)
		if wait < time.Second {
			wait = time.Second
		}
		select {
		case <-c.stop:
			return
		case <-time.After(wait):
		}
	}
}

// CaptureWindow runs one profile window synchronously and records it.
// Exported for tests and for callers that want a window on demand; the
// background loop calls it on its cadence.
func (c *Collector) CaptureWindow() ProfileWindow {
	w := ProfileWindow{Start: time.Now().UTC()}

	// Claim the sequence number up front so failed windows are uniquely
	// numbered too — /api/profile consumers key on Seq.
	c.mu.Lock()
	w.Seq = c.seq
	c.seq++
	c.mu.Unlock()

	var cpuBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		// Most likely a competing profile (/debug/pprof/profile).
		// Count it and retry next interval.
		w.Err = err.Error()
		c.record(w, nil)
		return w
	}
	select {
	case <-c.stop:
	case <-time.After(c.cfg.Window):
	}
	pprof.StopCPUProfile()
	w.DurationNanos = time.Since(w.Start).Nanoseconds()

	if p, err := ParseProfile(cpuBuf.Bytes()); err != nil {
		w.Err = fmt.Sprintf("parse cpu profile: %v", err)
	} else {
		w.Stages, w.CPUSampledNanos = stageTable(p)
	}

	mutexBytes, mutexTotals := lookupProfile("mutex")
	blockBytes, blockTotals := lookupProfile("block")

	c.mu.Lock()
	w.MutexDelayNanos = mutexTotals.delayNanos - c.prevMutex.delayNanos
	w.BlockDelayNanos = blockTotals.delayNanos - c.prevBlock.delayNanos
	if w.MutexDelayNanos < 0 {
		w.MutexDelayNanos = 0
	}
	if w.BlockDelayNanos < 0 {
		w.BlockDelayNanos = 0
	}
	c.prevMutex, c.prevBlock = mutexTotals, blockTotals
	c.mu.Unlock()

	if c.cfg.Dir != "" && w.Err == "" {
		w.Dir = c.archive(&w, cpuBuf.Bytes(), mutexBytes, blockBytes)
	}
	c.record(w, cpuBuf.Bytes())
	return w
}

// stageTable aggregates a CPU profile's nanoseconds by stage label,
// sorted by descending CPU. Unlabeled samples land in the "other" row.
func stageTable(p *Profile) ([]StageCPUSample, int64) {
	vi := p.ValueIndex("nanoseconds")
	byStage, total := p.SumByLabel(LabelStage, vi)
	if total <= 0 {
		return nil, 0
	}
	out := make([]StageCPUSample, 0, len(byStage))
	for stage, nanos := range byStage {
		if stage == "" {
			stage = otherStage
		}
		out = append(out, StageCPUSample{
			Stage:    stage,
			CPUNanos: nanos,
			Fraction: float64(nanos) / float64(total),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CPUNanos != out[j].CPUNanos {
			return out[i].CPUNanos > out[j].CPUNanos
		}
		return out[i].Stage < out[j].Stage
	})
	return out, total
}

// lookupProfile snapshots a named runtime profile (mutex, block) and its
// cumulative totals. Returns nil bytes when the profile is unavailable.
func lookupProfile(name string) ([]byte, lookupTotals) {
	p := pprof.Lookup(name)
	if p == nil {
		return nil, lookupTotals{}
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 0); err != nil {
		return nil, lookupTotals{}
	}
	var t lookupTotals
	if parsed, err := ParseProfile(buf.Bytes()); err == nil {
		if vi := parsed.ValueIndex("nanoseconds"); vi >= 0 {
			_, t.delayNanos = parsed.SumByLabel(LabelStage, vi)
		}
		if vi := parsed.ValueIndex("count"); vi >= 0 {
			_, t.contentions = parsed.SumByLabel(LabelStage, vi)
		}
	}
	return buf.Bytes(), t
}

// archive writes one window directory and prunes the oldest beyond
// MaxWindows. Directory names sort chronologically (UTC stamp + seq), so
// pruning is a name sort — the flight recorder's retention idiom.
func (c *Collector) archive(w *ProfileWindow, cpu, mutex, block []byte) string {
	dir := filepath.Join(c.cfg.Dir,
		fmt.Sprintf("prof-%s-%06d", w.Start.Format("20060102T150405Z"), w.Seq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	writeFile := func(name string, data []byte) {
		if len(data) > 0 {
			_ = os.WriteFile(filepath.Join(dir, name), data, 0o644)
		}
	}
	writeFile("cpu.pprof", cpu)
	writeFile("mutex.pprof", mutex)
	writeFile("block.pprof", block)
	var heapBuf bytes.Buffer
	if err := pprof.WriteHeapProfile(&heapBuf); err == nil {
		writeFile("heap.pprof", heapBuf.Bytes())
	}
	if meta, err := json.MarshalIndent(w, "", "  "); err == nil {
		writeFile("window.json", append(meta, '\n'))
	}
	c.pruneWindows()
	return dir
}

// pruneWindows deletes the oldest prof-* directories beyond MaxWindows.
func (c *Collector) pruneWindows() {
	entries, err := os.ReadDir(c.cfg.Dir)
	if err != nil {
		return
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() && len(e.Name()) > 5 && e.Name()[:5] == "prof-" {
			dirs = append(dirs, e.Name())
		}
	}
	if len(dirs) <= c.cfg.MaxWindows {
		return
	}
	sort.Strings(dirs)
	for _, name := range dirs[:len(dirs)-c.cfg.MaxWindows] {
		_ = os.RemoveAll(filepath.Join(c.cfg.Dir, name))
	}
}

// record publishes a finished window: telemetry, the in-memory ring, and
// the latest-CPU cache for flight dumps.
func (c *Collector) record(w ProfileWindow, cpu []byte) {
	c.mu.Lock()
	c.windows = append(c.windows, w)
	if len(c.windows) > c.cfg.Keep {
		c.windows = append(c.windows[:0], c.windows[len(c.windows)-c.cfg.Keep:]...)
	}
	if w.Err == "" {
		c.captures++
		if len(cpu) > 0 {
			c.latestCPU = append(c.latestCPU[:0], cpu...)
		}
	} else {
		c.errors++
	}
	c.mu.Unlock()

	if c.cfg.Registry == nil {
		return
	}
	if w.Err != "" {
		c.errorsCtr.Inc()
		return
	}
	c.windowsCtr.Inc()
	c.windowCPU.Set(float64(w.CPUSampledNanos) / 1e9)
	seen := make(map[string]bool, len(w.Stages))
	for _, s := range w.Stages {
		if g, ok := c.stageGauges[s.Stage]; ok {
			g.Set(s.Fraction)
			seen[s.Stage] = true
		}
	}
	for name, g := range c.stageGauges {
		if !seen[name] {
			g.Set(0)
		}
	}
}

// Windows returns the retained window summaries, oldest first.
func (c *Collector) Windows() []ProfileWindow {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ProfileWindow, len(c.windows))
	copy(out, c.windows)
	return out
}

// Latest returns the most recent window summary (ok=false before the
// first capture completes).
func (c *Collector) Latest() (ProfileWindow, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.windows) == 0 {
		return ProfileWindow{}, false
	}
	return c.windows[len(c.windows)-1], true
}

// Counts returns how many windows captured cleanly and how many failed.
func (c *Collector) Counts() (captures, errors int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.captures, c.errors
}

// WriteLatest drops the most recent labeled CPU window into dir as
// cpu.pprof — the flight recorder's Sources.Profiles hook. It never
// captures a fresh window (flight dumps happen on the engine loop), so
// it returns without writing when no window has completed yet.
func (c *Collector) WriteLatest(dir string) {
	c.mu.Lock()
	cpu := append([]byte(nil), c.latestCPU...)
	c.mu.Unlock()
	if len(cpu) == 0 {
		return
	}
	_ = os.WriteFile(filepath.Join(dir, "cpu.pprof"), cpu, 0o644)
}
