package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/flood"
	"skynet/internal/monitors"
	"skynet/internal/netsim"
	"skynet/internal/topology"
)

// cadenceGrid is the tick period both cadence replays share. Their grid
// is offset half a period from the trace's first alert: the monitors
// report on 10 s-aligned rounds, and a grid on those instants would
// leave new evidence no room to tick early.
const cadenceGrid = 10 * time.Second

// cadenceReplay replays a time-ordered trace on a cadenceGrid tick grid
// and, with evidenceGap > 0, also the way skynetd ticks on new evidence:
// the alerts of one instant form one batch, and a batch IngestBatch
// reports as new evidence is followed by an extra tick at its instant —
// at least evidenceGap of alert time after the previous tick and before
// the next grid tick; lastEvidence, when set, holds the latest such
// tick. atGrid, when set, sees the engine after every grid tick.
func cadenceReplay(t *testing.T, alerts []alert.Alert, topo *topology.Topology, cfg core.Config,
	rec *flood.Recorder, evidenceGap time.Duration, lastEvidence *time.Time, atGrid func(at time.Time, eng *core.Engine)) (extra int) {
	t.Helper()
	classifier, err := preprocessClassifier()
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(cfg, topo, classifier, nil, nil)
	if rec != nil {
		eng.EnableFlood(rec)
	}
	var last time.Time
	grid := func(at time.Time) {
		eng.Tick(at)
		last = at
		if atGrid != nil {
			atGrid(at, eng)
		}
	}
	var batch alert.Batch
	next := alerts[0].Time.Add(cadenceGrid / 2)
	for i := 0; i < len(alerts); {
		at := alerts[i].Time
		if at.After(next) {
			grid(next)
			next = next.Add(cadenceGrid)
			continue
		}
		batch.Reset()
		for ; i < len(alerts) && alerts[i].Time.Equal(at); i++ {
			batch.Append(&alerts[i])
		}
		fresh := eng.IngestBatch(&batch)
		if fresh && evidenceGap > 0 && at.Before(next) && (last.IsZero() || at.Sub(last) >= evidenceGap) {
			eng.Tick(at)
			last = at
			extra++
			if lastEvidence != nil {
				*lastEvidence = at
			}
		}
	}
	end := alerts[len(alerts)-1].Time.Add(cfg.Locator.NodeTTL + cadenceGrid)
	for !next.After(end) {
		grid(next)
		next = next.Add(cadenceGrid)
	}
	return extra
}

// incidentSkeleton lists what identifies each incident the engine holds:
// ID, root, start and activity. replayFingerprint has the full state.
func incidentSkeleton(eng *core.Engine) string {
	var b strings.Builder
	for _, in := range eng.AllIncidents() {
		fmt.Fprintf(&b, "#%d %s start=%s active=%v\n", in.ID, in.Root, in.Start.Format(time.TimeOnly), in.Active())
	}
	return b.String()
}

// TestReplayCadenceIndependent replays a small generated catalog on the
// 10 s grid, then on the same grid plus a tick right after every batch
// with new evidence (at least 100 ms of alert time apart, as skynetd's
// duty bound spaces them). Algorithms 1–3 are written against alert
// time, so at every grid instant the same incidents must exist — IDs,
// roots, starts, activity — and once the preprocessor has reported what
// an early tick left unreported, everything else must match too: render,
// zoom and severity bits, at workers 1 and 2. A difference is a tick
// counted where time should be.
//
// An early tick reports a new aggregate's first observations sooner;
// its later ones reach the locator at the aggregate's next refresh,
// RefreshInterval after that emission — the first tick from then on,
// which is the 10 s replay's refresh tick too. Until then the
// incident's counts and update time trail the 10 s replay's by the few
// seconds of observations the grid tick would have folded into its
// first emission, so full state is compared at grid instants
// RefreshInterval + one grid period after the last evidence tick, and
// at the end of the replay.
func TestReplayCadenceIndependent(t *testing.T) {
	gen := DefaultGenerateOptions()
	gen.Scenarios = 6
	gen.Spacing = 5 * time.Minute
	gen.Window = 40 * time.Minute
	g, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	settle := core.DefaultConfig().Preprocess.RefreshInterval + cadenceGrid
	for _, workers := range []int{1, 2} {
		cfg := core.DefaultConfig()
		cfg.Workers = workers
		var skeleton, full []string
		cadenceReplay(t, g.Alerts, g.Topo, cfg, nil, 0, nil, func(_ time.Time, eng *core.Engine) {
			skeleton = append(skeleton, incidentSkeleton(eng))
			full = append(full, replayFingerprint(eng))
		})
		if skeleton[len(skeleton)-1] == "" {
			t.Fatal("the grid replay produced no incidents to compare")
		}
		i, compared := 0, 0
		var lastEvidence time.Time
		extra := cadenceReplay(t, g.Alerts, g.Topo, cfg, nil, 100*time.Millisecond, &lastEvidence, func(at time.Time, eng *core.Engine) {
			want, got := skeleton[i], incidentSkeleton(eng)
			if at.Sub(lastEvidence) >= settle || i == len(full)-1 {
				want, got = full[i], replayFingerprint(eng)
				compared++
			}
			if got != want && !t.Failed() {
				t.Errorf("workers=%d: incidents at %s differ from the grid replay\n got:\n%s\nwant:\n%s",
					workers, at.Format(time.TimeOnly), got, want)
			}
			i++
		})
		if extra == 0 {
			t.Fatalf("workers=%d: no batch brought new evidence between grid ticks", workers)
		}
		t.Logf("workers=%d: %d grid ticks (%d compared in full), %d evidence ticks", workers, len(full), compared, extra)
	}
}

// TestReplayFloodCadence replays every flood scenario family on the
// 10 s grid, then on the grid plus evidence ticks: the detector steps
// once per flood.RefSpan of alert time, so both find the same number of
// episodes, each opening and closing within one RefSpan of its 10 s
// counterpart.
func TestReplayFloodCadence(t *testing.T) {
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
			alerts, err := monitors.NewFleet(topo, mcfg).Run(sim, start, start.Add(40*time.Minute), mcfg.PingInterval)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Workers = 1
			grid, early := flood.New(flood.Config{}), flood.New(flood.Config{})
			cadenceReplay(t, alerts, topo, cfg, grid, 0, nil, nil)
			extra := cadenceReplay(t, alerts, topo, cfg, early, 100*time.Millisecond, nil, nil)
			want, got := grid.Episodes(), early.Episodes()
			if len(got) != len(want) {
				t.Fatalf("%d episodes with %d evidence ticks, %d on the 10 s grid", len(got), extra, len(want))
			}
			within := func(a, b time.Time) bool {
				d := a.Sub(b)
				return d <= flood.RefSpan && d >= -flood.RefSpan
			}
			for i := range want {
				if !within(got[i].Start, want[i].Start) || !within(got[i].End, want[i].End) {
					t.Errorf("episode %d: %s – %s with evidence ticks, %s – %s on the 10 s grid", want[i].ID,
						got[i].Start.Format(time.TimeOnly), got[i].End.Format(time.TimeOnly),
						want[i].Start.Format(time.TimeOnly), want[i].End.Format(time.TimeOnly))
				}
			}
		})
	}
}
