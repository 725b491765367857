package trace

import (
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/monitors"
	"skynet/internal/netsim"
	"skynet/internal/topology"
)

const cutTick = 10 * time.Second

// replayCut replays alerts through a fresh engine on ReplayWithOptions'
// tick schedule, but driven from the test so it chooses where the ingest
// batches are cut: every cut rows and before each tick. cut 1 goes
// through Engine.Ingest, the one-row shim.
func replayCut(t *testing.T, alerts []alert.Alert, topo *topology.Topology, cfg core.Config, cut int) *core.Engine {
	t.Helper()
	classifier, err := preprocessClassifier()
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(cfg, topo, classifier, nil, nil)
	if len(alerts) == 0 {
		return eng
	}
	var batch alert.Batch
	flush := func() {
		eng.IngestBatch(&batch)
		batch.Reset()
	}
	next := alerts[0].Time.Add(cutTick)
	for i := range alerts {
		for alerts[i].Time.After(next) {
			flush()
			eng.Tick(next)
			next = next.Add(cutTick)
		}
		if cut == 1 {
			eng.Ingest(alerts[i])
			continue
		}
		batch.Append(&alerts[i])
		if batch.Len() == cut {
			flush()
		}
	}
	flush()
	end := alerts[len(alerts)-1].Time.Add(cfg.Locator.NodeTTL + cutTick)
	for !next.After(end) {
		eng.Tick(next)
		next = next.Add(cutTick)
	}
	return eng
}

// checkBatchBoundaries requires the incident population — IDs, severity
// bits, zoom-in verdicts, rendered reports — to be bit-identical however
// the raw alerts are cut into batches: one row per IngestBatch (the
// serial reference, through Engine.Ingest) against one batch per tick
// (ReplayWithOptions, what skynet-replay runs) and batches cut at 7 and
// at 512 rows (the ingest readers' flush size), at workers {1, 2, 4, 8}.
func checkBatchBoundaries(t *testing.T, alerts []alert.Alert, topo *topology.Topology, wantIncidents bool) {
	t.Helper()
	refCfg := core.DefaultConfig()
	refCfg.Workers = 1
	ref := replayFingerprint(replayCut(t, alerts, topo, refCfg, 1))
	if wantIncidents && ref == "" {
		t.Fatal("reference replay produced no incidents to compare")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := core.DefaultConfig()
		cfg.Workers = workers
		eng, err := ReplayWithOptions(alerts, topo, cfg, ReplayOptions{Tick: cutTick})
		if err != nil {
			t.Fatal(err)
		}
		if replayFingerprint(eng) != ref {
			t.Errorf("workers=%d: per-tick batches diverged from the one-row serial reference", workers)
		}
		for _, cut := range []int{7, 512} {
			if replayFingerprint(replayCut(t, alerts, topo, cfg, cut)) != ref {
				t.Errorf("workers=%d: batches cut at %d rows diverged from the one-row serial reference", workers, cut)
			}
		}
	}
}

// TestReplayColumnarBitIdentical runs the full scenario catalog (every
// severe family internal/scenario can inject, plus benign and quiet
// workloads) and a generated multi-scenario trace through
// Engine.IngestBatch and requires the output to be independent of where
// the batch boundaries fall. Under -race this doubles as a concurrency
// check of batch absorption against the sharded stages.
func TestReplayColumnarBitIdentical(t *testing.T) {
	topo, err := topology.Generate(topology.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)
	for _, c := range floodCases(topo, start) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			sim := netsim.New(topo, 1)
			for i := range c.scs {
				if err := c.scs[i].Inject(sim); err != nil {
					t.Fatal(err)
				}
			}
			mcfg := monitors.DefaultConfig()
			fleet := monitors.NewFleet(topo, mcfg)
			alerts, err := fleet.Run(sim, start, start.Add(40*time.Minute), mcfg.PingInterval)
			if err != nil {
				t.Fatal(err)
			}
			severe := false
			for _, sc := range c.scs {
				severe = severe || sc.Severe
			}
			checkBatchBoundaries(t, alerts, topo, severe)
		})
	}
	t.Run("generated", func(t *testing.T) {
		t.Parallel()
		gen := DefaultGenerateOptions()
		gen.Scenarios = 2
		gen.Window = 20 * time.Minute
		g, err := Generate(gen)
		if err != nil {
			t.Fatal(err)
		}
		checkBatchBoundaries(t, g.Alerts, g.Topo, true)
	})
}
