package experiments

import (
	"testing"
	"time"

	"skynet/internal/locator"
	"skynet/internal/monitors"
	"skynet/internal/topology"
)

func buildTestCorpus(t *testing.T, n int) (*topology.Topology, []labeledTrace) {
	t.Helper()
	topo := topology.MustGenerate(topology.SmallConfig())
	mon := monitors.DefaultConfig()
	mon.NoisePerHour = 0
	corpus, err := buildCorpus(topo, mon, n, 6*time.Minute, 1)
	if err != nil {
		t.Fatal(err)
	}
	return topo, corpus
}

func TestSweepSpaceShape(t *testing.T) {
	space := defaultTuneConfig().space()
	if len(space) < 50 {
		t.Fatalf("space too small: %d", len(space))
	}
	seen := map[locator.Thresholds]bool{}
	for _, th := range space {
		if seen[th] {
			t.Fatalf("duplicate candidate %v", th)
		}
		seen[th] = true
		if th.FailureOnly == 0 && th.ComboFailure == 0 && th.AnyAlerts == 0 {
			t.Fatal("never-firing candidate included")
		}
		if (th.ComboFailure == 0) != (th.ComboOther == 0) {
			t.Fatalf("half-disabled combo %v included", th)
		}
	}
	// The Figure 9 settings must all be inside the default space.
	for _, s := range []string{"2/1+2/5", "0/1+2/5", "2/0+0/5", "2/1+2/0", "1/1+2/5", "2/1+2/4", "2/1+1/5", "2/1+3/5", "2/1+2/6"} {
		th, err := locator.ParseThresholds(s)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[th] {
			t.Errorf("Figure 9 setting %s outside default sweep space", s)
		}
	}
}

func TestTuneSelectsZeroFN(t *testing.T) {
	topo, corpus := buildTestCorpus(t, 4)
	cfg := defaultTuneConfig()
	// Shrink the space for test speed: sweep around the production point.
	cfg.MaxFailureOnly, cfg.MaxComboFail, cfg.MaxComboOther, cfg.MaxAny = 3, 1, 2, 6
	res, err := tune(cfg, topo, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ZeroFN {
		t.Fatalf("no zero-FN candidate found; best %v FN=%d",
			res.Best.Thresholds, res.Best.Outcome.FalseNegatives)
	}
	if res.Best.Outcome.FalseNegatives != 0 {
		t.Error("best candidate has false negatives")
	}
	// Ordering invariant: best first.
	for i := 1; i < len(res.Candidates); i++ {
		if less(res.Candidates[i], res.Candidates[i-1]) {
			t.Fatal("candidates not sorted by selection criterion")
		}
	}
}

func TestTuneErrors(t *testing.T) {
	topo := topology.MustGenerate(topology.SmallConfig())
	if _, err := tune(defaultTuneConfig(), topo, nil); err == nil {
		t.Error("empty corpus accepted")
	}
	cfg := defaultTuneConfig()
	cfg.MaxFailureOnly, cfg.MaxComboFail, cfg.MaxComboOther, cfg.MaxAny = 0, 0, 0, 0
	_, corpus := buildTestCorpus(t, 1)
	if _, err := tune(cfg, topo, corpus); err == nil {
		t.Error("empty space accepted")
	}
}

func TestStrictnessOrdering(t *testing.T) {
	loose := locator.Thresholds{FailureOnly: 1, ComboFailure: 1, ComboOther: 1, AnyAlerts: 3}
	tight := locator.Thresholds{FailureOnly: 3, ComboFailure: 2, ComboOther: 3, AnyAlerts: 7}
	disabled := locator.Thresholds{FailureOnly: 2}
	if strictness(tight) <= strictness(loose) {
		t.Error("tight should be stricter than loose")
	}
	if strictness(disabled) <= strictness(tight) {
		t.Error("disabled clauses should count as maximally strict")
	}
}
