package experiments

import (
	"fmt"
	"sort"
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/locator"
	"skynet/internal/metrics"
	"skynet/internal/monitors"
	"skynet/internal/netsim"
	"skynet/internal/scenario"
	"skynet/internal/topology"
	"skynet/internal/trace"
)

// Autotune runs the §9 "better thresholds" future-work experiment: sweep
// the incident-threshold space over a labeled corpus and compare the
// selected setting with the hand-tuned production "2/1+2/5".
func Autotune(opts Options) (*Result, error) {
	topo, err := topoGen(opts.Topology)
	if err != nil {
		return nil, err
	}
	n := opts.Scenarios / 2
	if n > 10 {
		n = 10 // the sweep is quadratic in corpus x candidates; 10 labeled traces suffice
	}
	if n < 4 {
		n = 4
	}
	corpus, err := buildCorpus(topo, opts.Monitors, n, opts.Window, opts.Seed)
	if err != nil {
		return nil, err
	}
	cfg := defaultTuneConfig()
	cfg.Engine = opts.Engine
	// Sweep a space that still contains every Figure 9 setting but trims
	// clause maxima the data never reaches.
	cfg.MaxFailureOnly, cfg.MaxComboFail, cfg.MaxComboOther, cfg.MaxAny = 3, 1, 3, 6
	res0, err := tune(cfg, topo, corpus)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:       "autotune",
		Title:      "Threshold auto-tuning (§9 future work)",
		PaperShape: "production hand-tuned 2/1+2/5: zero FN with lowest FP; the tuner should land on a setting at least as good",
		Header:     []string{"setting", "false positive", "false negative"},
	}
	// Show the tuner's pick, the production setting, and the extremes of
	// the candidate list for context.
	prod := locator.ProductionThresholds()
	var prodCand *tuneCandidate
	for i := range res0.Candidates {
		if res0.Candidates[i].Thresholds == prod {
			prodCand = &res0.Candidates[i]
			break
		}
	}
	res.Rows = append(res.Rows, []string{
		"tuned: " + res0.Best.Thresholds.String(),
		pct(res0.Best.FPRatio()), pct(res0.Best.FNRatio()),
	})
	if prodCand != nil {
		res.Rows = append(res.Rows, []string{
			"production: " + prod.String(),
			pct(prodCand.FPRatio()), pct(prodCand.FNRatio()),
		})
	}
	worst := res0.Candidates[len(res0.Candidates)-1]
	res.Rows = append(res.Rows, []string{
		"worst candidate: " + worst.Thresholds.String(),
		pct(worst.FPRatio()), pct(worst.FNRatio()),
	})
	res.Notes = append(res.Notes, fmt.Sprintf("%d candidates swept over %d labeled traces; zero-FN achievable: %v",
		len(res0.Candidates), len(corpus), res0.ZeroFN))
	return res, nil
}

// The threshold tuner. Instead of hand-picking the incident-generation
// thresholds from operator experience, it sweeps the threshold space over
// a labeled corpus and selects the setting that — like the production
// choice in §6.3 — achieves zero false negatives with the fewest false
// positives. The corpus is raw-alert traces with scenario ground truth,
// the same material the Figure 9 experiment replays; the tuner is the
// programmatic version of the manual tuning the paper describes
// accumulating "with the accumulation of more experiential data".

// labeledTrace pairs a raw alert trace with its ground-truth scenario.
type labeledTrace struct {
	Raw      []alert.Alert
	Scenario scenario.Scenario
}

// tuneCandidate is one evaluated threshold setting.
type tuneCandidate struct {
	Thresholds locator.Thresholds
	Outcome    metrics.Outcome
}

// FPRatio is the candidate's false-positive ratio.
func (c tuneCandidate) FPRatio() float64 { return c.Outcome.FPRatio() }

// FNRatio is the candidate's false-negative ratio.
func (c tuneCandidate) FNRatio() float64 { return c.Outcome.FNRatio() }

// tuneConfig bounds the sweep space. Zero value is unusable; use
// defaultTuneConfig.
type tuneConfig struct {
	// MaxFailureOnly, MaxCombo and MaxAny bound each threshold clause.
	MaxFailureOnly int
	MaxComboFail   int
	MaxComboOther  int
	MaxAny         int
	// Tick is the replay cadence.
	Tick time.Duration
	// Engine provides the non-locator pipeline configuration.
	Engine core.Config
}

// defaultTuneConfig sweeps a space that includes every Figure 9 setting.
func defaultTuneConfig() tuneConfig {
	return tuneConfig{
		MaxFailureOnly: 3,
		MaxComboFail:   2,
		MaxComboOther:  3,
		MaxAny:         7,
		Tick:           10 * time.Second,
		Engine:         core.DefaultConfig(),
	}
}

// tuneResult is the sweep outcome.
type tuneResult struct {
	// Best is the selected setting: zero FN, minimum FP, ties broken by
	// stricter (higher) thresholds.
	Best tuneCandidate
	// Candidates is every evaluated setting, best first.
	Candidates []tuneCandidate
	// ZeroFN reports whether any candidate achieved zero false negatives.
	ZeroFN bool
}

// tune sweeps the threshold space over the corpus and selects the best
// candidate by the paper's criterion.
func tune(cfg tuneConfig, topo *topology.Topology, corpus []labeledTrace) (*tuneResult, error) {
	if len(corpus) == 0 {
		return nil, fmt.Errorf("autotune: empty corpus")
	}
	space := cfg.space()
	if len(space) == 0 {
		return nil, fmt.Errorf("autotune: empty sweep space")
	}
	res := &tuneResult{}
	for _, th := range space {
		engCfg := cfg.Engine
		engCfg.EnableSOP = false
		engCfg.Locator.Thresholds = th
		var outs []metrics.Outcome
		for i := range corpus {
			eng, err := trace.Replay(corpus[i].Raw, topo, engCfg, cfg.Tick)
			if err != nil {
				return nil, fmt.Errorf("autotune: replay %d under %v: %w", i, th, err)
			}
			outs = append(outs, metrics.Evaluate(eng.AllIncidents(),
				[]scenario.Scenario{corpus[i].Scenario}))
		}
		res.Candidates = append(res.Candidates, tuneCandidate{Thresholds: th, Outcome: metrics.Merge(outs...)})
	}
	sort.SliceStable(res.Candidates, func(i, j int) bool { return less(res.Candidates[i], res.Candidates[j]) })
	res.Best = res.Candidates[0]
	res.ZeroFN = res.Best.Outcome.FalseNegatives == 0
	return res, nil
}

// less orders candidates: zero-FN first, then fewer FN, then fewer FP,
// then stricter thresholds (harder to trip spuriously in the future).
func less(a, b tuneCandidate) bool {
	if a.Outcome.FalseNegatives != b.Outcome.FalseNegatives {
		return a.Outcome.FalseNegatives < b.Outcome.FalseNegatives
	}
	if a.FPRatio() != b.FPRatio() {
		return a.FPRatio() < b.FPRatio()
	}
	return strictness(a.Thresholds) > strictness(b.Thresholds)
}

// strictness orders settings by how hard they are to trip.
func strictness(t locator.Thresholds) int {
	s := 0
	if t.FailureOnly > 0 {
		s += t.FailureOnly
	} else {
		s += 100 // disabled clause can never trip: maximally strict
	}
	if t.ComboFailure > 0 && t.ComboOther > 0 {
		s += t.ComboFailure + t.ComboOther
	} else {
		s += 100
	}
	if t.AnyAlerts > 0 {
		s += t.AnyAlerts
	} else {
		s += 100
	}
	return s
}

// space enumerates the candidate settings. Clause value 0 (disabled) is
// included for the failure-only and any clauses, mirroring Figure 9's
// disabled variants.
func (cfg tuneConfig) space() []locator.Thresholds {
	var out []locator.Thresholds
	for a := 0; a <= cfg.MaxFailureOnly; a++ {
		for b := 0; b <= cfg.MaxComboFail; b++ {
			for c := 0; c <= cfg.MaxComboOther; c++ {
				if (b == 0) != (c == 0) {
					continue // half-disabled combo is meaningless
				}
				for d := 0; d <= cfg.MaxAny; d++ {
					th := locator.Thresholds{FailureOnly: a, ComboFailure: b, ComboOther: c, AnyAlerts: d}
					if a == 0 && b == 0 && d == 0 {
						continue // never fires
					}
					out = append(out, th)
				}
			}
		}
	}
	return out
}

// buildCorpus generates a labeled corpus of n single-scenario traces over
// the topology — the tuner's training material.
func buildCorpus(topo *topology.Topology, monCfg monitors.Config, n int,
	window time.Duration, seed int64) ([]labeledTrace, error) {
	gen := scenario.NewGenerator(topo, seed)
	start := time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)
	out := make([]labeledTrace, 0, n)
	for i := 0; i < n; i++ {
		sc := gen.Random(gen.DrawCategory(), start.Add(90*time.Second))
		sim := netsim.New(topo, seed+int64(i))
		if err := sc.Inject(sim); err != nil {
			return nil, err
		}
		cfg := monCfg
		cfg.Seed = seed + int64(i)
		fleet := monitors.NewFleet(topo, cfg)
		raw, err := fleet.Run(sim, start, start.Add(window), cfg.PingInterval)
		if err != nil {
			return nil, err
		}
		out = append(out, labeledTrace{Raw: raw, Scenario: sc})
	}
	return out, nil
}
