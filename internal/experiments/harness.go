// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) plus the §5.1 case studies, on the synthetic substrate.
// Each experiment returns a Result — a printable table with the measured
// rows and a note recalling the paper's shape — and the skynet-exp
// binary drives them.
//
// Absolute numbers differ from the paper (their substrate is a production
// network, ours a simulator); the experiments are judged on shape: who
// wins, by roughly what factor, where the crossovers fall.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/incident"
	"skynet/internal/metrics"
	"skynet/internal/monitors"
	"skynet/internal/scenario"
	"skynet/internal/topology"
)

// Options configures the experiment corpus.
type Options struct {
	// Topology is the substrate scale.
	Topology topology.Config
	// Monitors configures the fleet (noise included — the paper's corpus
	// has unrelated glitches).
	Monitors monitors.Config
	// Engine is the pipeline configuration (production defaults).
	Engine core.Config
	// Scenarios is the corpus size: independent failure runs drawn with
	// the Figure 1 category mix.
	Scenarios int
	// Window is the observation window per scenario run.
	Window time.Duration
	// Seed drives every random choice.
	Seed int64
}

// DefaultOptions returns a corpus that runs in tens of seconds on a
// laptop. Benchmarks may scale it up.
func DefaultOptions() Options {
	return Options{
		Topology:  topology.SmallConfig(),
		Monitors:  monitors.DefaultConfig(),
		Engine:    core.DefaultConfig(),
		Scenarios: 24,
		Window:    12 * time.Minute,
		Seed:      1,
	}
}

// epoch anchors simulated time for all experiments.
var epoch = time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)

// Result is one experiment's measured output.
type Result struct {
	// Name is the experiment ID ("fig8a", "table2", ...).
	Name string
	// Title describes what is being reproduced.
	Title string
	// PaperShape recalls what the paper reports, for side-by-side
	// comparison in EXPERIMENTS.md.
	PaperShape string
	// Header and Rows are the table.
	Header []string
	Rows   [][]string
	// Notes carries free-form observations.
	Notes []string
}

// Print renders the result as an aligned text table.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.Name, r.Title)
	if r.PaperShape != "" {
		fmt.Fprintf(w, "paper: %s\n", r.PaperShape)
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (r *Result) String() string {
	var b strings.Builder
	r.Print(&b)
	return b.String()
}

// runRecord is one scenario run through the full pipeline.
type runRecord struct {
	Scenario  scenario.Scenario
	Raw       []alert.Alert
	Stats     core.RunStats
	Incidents []*incident.Incident
	// Severe counts incidents clearing the severity filter.
	Severe int
	// Zoomed reports whether any matching incident was zoomed.
	Zoomed bool
	// SOP reports whether an automatic SOP fired.
	SOP bool
	// Outcome is the FP/FN evaluation against this run's scenario.
	Outcome metrics.Outcome
}

// corpus runs every scenario independently (own simulator, fleet, engine)
// and in parallel across CPUs. Seeds are per-index, so results are
// deterministic regardless of parallelism.
func corpus(opts Options, sources ...alert.Source) ([]runRecord, error) {
	topo, err := topology.Generate(opts.Topology)
	if err != nil {
		return nil, err
	}
	gen := scenario.NewGenerator(topo, opts.Seed)
	scs := make([]scenario.Scenario, opts.Scenarios)
	for i := range scs {
		scs[i] = gen.Random(gen.DrawCategory(), epoch.Add(90*time.Second))
		scs[i].Name = fmt.Sprintf("%03d-%s", i, scs[i].Name)
	}
	records := make([]runRecord, len(scs))
	errs := make([]error, len(scs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range scs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			records[i], errs[i] = runOne(topo, opts, scs[i], opts.Seed+int64(i), sources...)
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return records, nil
}

// runOne executes a single scenario end to end.
func runOne(topo *topology.Topology, opts Options, sc scenario.Scenario, seed int64, sources ...alert.Source) (runRecord, error) {
	rec := runRecord{Scenario: sc}
	mon := opts.Monitors
	mon.Seed = seed
	r, err := core.NewRunner(topo, opts.Engine, mon, seed, sources...)
	if err != nil {
		return rec, err
	}
	// Capture raw alerts by wrapping the run: the runner ingests
	// directly, so we re-poll stats afterwards and keep raw volume from
	// RunStats; for per-alert analyses (coverage) we run the fleet
	// separately below only when needed. To keep one simulation per run,
	// we instead record raw alerts through the engine's counter and a
	// fleet tap.
	if err := sc.Inject(r.Sim); err != nil {
		return rec, err
	}
	tap := &rawTap{}
	r.Tap = tap.add
	stats, err := r.Run(epoch, epoch.Add(opts.Window))
	if err != nil {
		return rec, err
	}
	rec.Raw = tap.alerts
	rec.Stats = stats
	rec.Incidents = r.Engine.AllIncidents()
	rec.Severe = len(r.Engine.Severe())
	rec.SOP = stats.SOPExecutions > 0
	for _, in := range rec.Incidents {
		end := in.UpdateTime
		if sc.Matches(in.Root, in.Start, end) && !in.Zoomed.IsRoot() {
			rec.Zoomed = true
		}
	}
	rec.Outcome = metrics.Evaluate(rec.Incidents, []scenario.Scenario{sc})
	return rec, nil
}

// rawTap collects the raw alerts a runner ingests.
type rawTap struct {
	alerts []alert.Alert
}

func (t *rawTap) add(a alert.Alert) { t.alerts = append(t.alerts, a) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// topoGen wraps topology.Generate for experiment files.
func topoGen(cfg topology.Config) (*topology.Topology, error) { return topology.Generate(cfg) }

// mixedCorpus models a month of operations: for every genuinely harmful
// failure (Figure 1 draw) there are three benign events redundancy
// absorbs — the §6.4 population whose severity filter cuts the operator
// feed. opts.Scenarios counts the harmful draws.
func mixedCorpus(opts Options) ([]runRecord, error) {
	topo, err := topoGen(opts.Topology)
	if err != nil {
		return nil, err
	}
	gen := scenario.NewGenerator(topo, opts.Seed)
	var scs []scenario.Scenario
	start := epoch.Add(90 * time.Second)
	for i := 0; i < opts.Scenarios; i++ {
		sc := gen.Random(gen.DrawCategory(), start)
		sc.Name = fmt.Sprintf("%03d-%s", len(scs), sc.Name)
		scs = append(scs, sc)
		for j := 0; j < 3; j++ {
			m := gen.Minor(start)
			m.Name = fmt.Sprintf("%03d-%s", len(scs), m.Name)
			scs = append(scs, m)
		}
	}
	records := make([]runRecord, len(scs))
	errs := make([]error, len(scs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range scs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			records[i], errs[i] = runOne(topo, opts, scs[i], opts.Seed+int64(i))
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return records, nil
}

// severeCorpus runs the severe-failure families the paper's headline
// numbers are about: the §2.2 fiber cut, cluster power failures, DDoS,
// route errors, the §7.3 compound hardware case, and the §5.1 known
// device failure (mitigated by automatic SOP).
func severeCorpus(opts Options) ([]runRecord, error) {
	topo, err := topoGen(opts.Topology)
	if err != nil {
		return nil, err
	}
	gen := scenario.NewGenerator(topo, opts.Seed)
	start := epoch.Add(90 * time.Second)
	scs := []scenario.Scenario{
		scenario.FiberCutSevere(topo, start),
		scenario.UnbalancedHashCase(topo, start),
		scenario.KnownDeviceFailure(topo, start),
		gen.Random(scenario.CatInfrastructure, start),
		gen.Random(scenario.CatRoute, start),
		gen.Random(scenario.CatSecurity, start),
	}
	big, critical := scenario.ConcurrentIncidents(topo, start)
	scs = append(scs, big, critical)
	records := make([]runRecord, len(scs))
	errs := make([]error, len(scs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range scs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			records[i], errs[i] = runOne(topo, opts, scs[i], opts.Seed+int64(i))
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return records, nil
}
