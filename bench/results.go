package main

// The run loop, what is printed and what is written.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is the send window BENCHMARK.json also names.
const defaultSeconds = 24

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run as it goes into a results file.
type runRecord struct {
	Workload string           `json:"workload"`
	Side     string           `json:"side,omitempty"` // "parent" in a paired run's baseline
	Seed     int64            `json:"seed"`
	Seconds  int              `json:"seconds"`
	At       time.Time        `json:"at"`
	Correct  bool             `json:"correct"`
	Metrics  map[string]value `json:"metrics"`
	Layers   map[string]value `json:"layers,omitempty"`
	// Samples is how many observations each percentile metric rests on,
	// and Supported the highest percentile that many can carry.
	Samples   map[string]int     `json:"samples"`
	Supported map[string]float64 `json:"supported_percentile"`
	// Failure shares and generator honesty.
	Sent           int     `json:"alerts_sent"`
	Ingested       int     `json:"alerts_ingested"`
	ShedShare      float64 `json:"shed_share"`
	Probes         int     `json:"probes_sent"`
	ProbesMissed   int     `json:"probes_missed"`
	ProbeMissShare float64 `json:"probe_miss_share"`
	// FeedLagP50Ms is the plain median next to feed_lag_iqm_ms: what the
	// budget's per-layer medians are summed against. FeedLagP75Ms is the
	// highest percentile a run's ticks support. Neither is bounded.
	FeedLagP50Ms float64 `json:"feed_lag_p50_ms"`
	FeedLagP75Ms float64 `json:"feed_lag_p75_ms"`
	GenLateP50Ms float64 `json:"gen_late_p50_ms"`
	GenLateP99Ms float64 `json:"gen_late_p99_ms"`
	QueueHigh    int     `json:"queue_high_water"`
	Checks       []check `json:"checks"`
}

// resultsFile is bench/results/<date>.json.
type resultsFile struct {
	Cpus       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// DaemonWorkers is skynetd's -workers default on this machine; scaling
	// over it is unmeasured here.
	DaemonWorkers int         `json:"daemon_workers"`
	TickMs        int         `json:"tick_ms"`
	Runs          []runRecord `json:"runs"`
}

func (r *e2eRun) record() runRecord {
	rec := runRecord{
		Workload: r.spec.name, Seed: r.seed, Seconds: r.seconds, At: r.log.t0, Correct: r.ok(),
		Metrics: map[string]value{}, Samples: map[string]int{}, Supported: map[string]float64{},
		Sent: r.log.alerts, Ingested: r.stats.RawIngested, Probes: r.probesSent(), ProbesMissed: r.missed,
		QueueHigh: r.stats.QueueHighWater, Checks: r.checks,
	}
	if rec.Sent > 0 {
		rec.ShedShare = float64(r.shed()) / float64(rec.Sent)
	}
	if rec.Probes > 0 {
		rec.ProbeMissShare = float64(r.missed) / float64(rec.Probes)
	}
	if late := sorted(r.log.late); len(late) > 0 {
		rec.GenLateP50Ms, rec.GenLateP99Ms = quantile(late, 0.5), quantile(late, 0.99)
	}
	detect, lag := sorted(r.detectMs), sorted(r.feedLagMs)
	set := func(name string, v float64) {
		rec.Metrics[name] = value{Value: v, Unit: findMetric(endToEnd, name).Unit}
	}
	rec.FeedLagP50Ms, rec.FeedLagP75Ms = quantile(lag, 0.5), quantile(lag, 0.75)
	set("detect_p50_ms", quantile(detect, 0.5))
	set("detect_p90_ms", quantile(detect, 0.9))
	set("feed_lag_iqm_ms", interquartileMean(lag))
	set("cpu_us_per_alert", r.cpuSeconds*1e6/float64(max(r.stats.RawIngested, 1)))
	set("rss_peak_mb", r.rssPeakMB)
	set("ingest_alerts_per_s", float64(r.stats.AlertsAccepted)/r.log.end.Sub(r.log.start).Seconds())
	set("setup_s", r.setupS)
	for name, n := range map[string]int{"detect": len(detect), "feed_lag": len(lag)} {
		rec.Samples[name] = n
		rec.Supported[name], _ = pickPercentile(n)
	}
	return rec
}

// driverLine is the one-line JSON result the benchmark contract asks for.
func driverLine(rec *runRecord, trace bool) string {
	metrics := rec.Metrics
	if trace {
		metrics = rec.Layers
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Sent + rec.Probes, rec.Sent - rec.Ingested + rec.ProbesMissed, metrics})
	if err != nil {
		panic(err) // plain maps of numbers and strings
	}
	return string(line)
}

func printRun(rec *runRecord) {
	fmt.Printf("%s seed=%d %ds: sent %d alerts, ingested %d, shed_share %.6f; %d probes, probe_miss_share %.4f; gen_late p50 %.3f ms p99 %.3f ms; queue high water %d; feed_lag p50 %.4f ms p75 %.4f ms\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Sent, rec.Ingested, rec.ShedShare, rec.Probes, rec.ProbeMissShare,
		rec.GenLateP50Ms, rec.GenLateP99Ms, rec.QueueHigh, rec.FeedLagP50Ms, rec.FeedLagP75Ms)
	for _, def := range endToEnd {
		v := rec.Metrics[def.Name]
		note := ""
		for _, fam := range []string{"detect", "feed_lag"} {
			if strings.HasPrefix(def.Name, fam+"_") {
				note = fmt.Sprintf("  (n=%d, supports up to p%g)", rec.Samples[fam], rec.Supported[fam])
			}
		}
		fmt.Printf("  %-28s %14.4f %s%s\n", def.Name, v.Value, v.Unit, note)
	}
	names := make([]string, 0, len(rec.Layers))
	for name := range rec.Layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-40s %14.4f %s\n", name, rec.Layers[name].Value, rec.Layers[name].Unit)
	}
	for _, c := range rec.Checks {
		if !c.OK {
			fmt.Printf("  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
}

// measure performs one valid run of one workload, traced or not. An
// open-loop run whose generator fell behind is run again, not reported.
func measure(ctx context.Context, root string, spec *workloadSpec, seed int64, seconds int, trace bool) (runRecord, error) {
	for attempt := 1; ; attempt++ {
		r, err := runE2E(ctx, root, spec, seed, seconds)
		if err != nil {
			return runRecord{}, err
		}
		rec := r.record()
		if rec.GenLateP99Ms > ms(maxLateP99) && attempt < 2 {
			fmt.Fprintf(os.Stderr, "bench: %s: gen_late_p99 %.2f ms, run is invalid, running again\n", spec.name, rec.GenLateP99Ms)
			continue
		}
		if trace {
			if err := traceLayers(r, &rec, root); err != nil {
				return rec, err
			}
		}
		return rec, nil
	}
}

// options is the command line.
type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	repeat     int
	out        string
	parent     string
	daemonRoot string
}

func newResultsFile() resultsFile {
	return resultsFile{Cpus: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		DaemonWorkers: runtime.NumCPU(), TickMs: int(tickEvery / time.Millisecond)}
}

// appendResults adds runs to the results file at path, creating it if
// need be. Appending lets separate invocations build up a comparison run
// by run.
func appendResults(path string, runs ...runRecord) (resultsFile, error) {
	file := newResultsFile()
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			return file, fmt.Errorf("%s: %w", path, err)
		}
	}
	file.Runs = append(file.Runs, runs...)
	raw, err := json.MarshalIndent(&file, "", " ")
	if err != nil {
		return file, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return file, err
	}
	return file, os.WriteFile(path, append(raw, '\n'), 0o644)
}

func run(ctx context.Context, o options) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if o.workload != "" && o.repeat == 1 && o.parent == "" {
		return runOne(ctx, root, o)
	}
	return runMany(ctx, root, o)
}

// runOne is one run of one workload in this process: what the driver
// invokes, and what runMany invokes for each of its runs.
func runOne(ctx context.Context, root string, o options) error {
	spec, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	daemonRoot := o.daemonRoot
	if daemonRoot == "" {
		daemonRoot = root
	}
	rec, err := measure(ctx, daemonRoot, spec, o.seed, o.seconds, o.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", spec.name, err)
	}
	printRun(&rec)
	if o.out != "" {
		if _, err := appendResults(o.out, rec); err != nil {
			return err
		}
	}
	fmt.Println(driverLine(&rec, o.trace))
	if !rec.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// runMany runs every workload o.repeat times, each run in a process of
// its own, as the driver runs them: one run's heap and garbage collector
// never share the machine with the next run's daemon. With a parent
// checkout every repeat is a pair and which side goes first alternates;
// both sides get this binary's generator, client and checks, and only
// the skynetd under test differs. The layer drives are linked from this
// tree, so the parent side is never traced.
func runMany(ctx context.Context, root string, o options) error {
	specs := workloads
	if o.workload != "" {
		spec, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		specs = []workloadSpec{*spec}
	}
	out := o.out
	if out == "" {
		out = filepath.Join(root, "bench", "results", time.Now().UTC().Format("2006-01-02")+".json")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type side struct{ label, root string }
	sides := []side{{"", root}}
	if o.parent != "" {
		sides = []side{{"parent", o.parent}, {"", root}}
	}
	one := filepath.Join(root, buildDir, "run.json")
	if err := os.MkdirAll(filepath.Dir(one), 0o755); err != nil {
		return err
	}
	allCorrect := true
	var file resultsFile
	for i := 0; i < o.repeat; i++ {
		for s := range specs {
			for j := range sides {
				sd := sides[(i+j)%len(sides)]
				if err := os.Remove(one); err != nil && !errors.Is(err, os.ErrNotExist) {
					return err
				}
				trace := "0"
				if o.trace && sd.label == "" {
					trace = "1"
				}
				cmd := exec.CommandContext(ctx, self, "-workload", specs[s].name, "-seed", strconv.FormatInt(o.seed, 10),
					"-seconds", strconv.Itoa(o.seconds), "-trace", trace, "-out", one, "-daemon-root", sd.root)
				cmd.Dir = root
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				// A run whose checks fail exits non-zero but still leaves
				// its record; only a run without one ends the series.
				runErr := cmd.Run()
				got, err := readResults(one)
				if err != nil || len(got.Runs) != 1 {
					return fmt.Errorf("%s: run left no record: %v", specs[s].name, runErr)
				}
				rec := got.Runs[0]
				rec.Side = sd.label
				allCorrect = allCorrect && rec.Correct
				if file, err = appendResults(out, rec); err != nil {
					return err
				}
			}
		}
	}
	fmt.Println("wrote", out)
	printSpreads(file.Runs)
	if o.parent != "" {
		compareRuns(file.Runs, file.Runs, "parent")
	}
	if !allCorrect {
		return errors.New("output checks failed")
	}
	return nil
}
