package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/fanout"
	"skynet/internal/flood"
	"skynet/internal/incident"
	"skynet/internal/prof"
	"skynet/internal/provenance"
	"skynet/internal/scenario"
	"skynet/internal/slo"
	"skynet/internal/span"
	"skynet/internal/telemetry"
	"skynet/internal/tsdb"
)

// feedDoc is what the test reads out of a delta or snapshot frame.
type feedDoc struct {
	Tick      uint64 `json:"tick"`
	Opened    []feedRow
	Updated   []feedRow
	Closed    []feedRow
	Incidents []feedRow
	Phase     string `json:"flood_phase"`
	Episode   uint64 `json:"flood_episode"`
	SLOFiring int    `json:"slo_firing"`
}

type feedRow struct {
	ID int `json:"id"`
}

func decodeFeed(t *testing.T, f *fanout.Frame) feedDoc {
	t.Helper()
	b := f.Bytes()
	i := bytes.Index(b, []byte("data: "))
	var doc feedDoc
	if err := json.Unmarshal(b[i+len("data: "):], &doc); err != nil {
		t.Fatalf("frame seq %d: %v", f.Seq(), err)
	}
	return doc
}

func rowIDs(rows []feedRow) []int {
	ids := make([]int, 0, len(rows))
	for _, r := range rows {
		ids = append(ids, r.ID)
	}
	return ids
}

func sortedIDs(ins []*incident.Incident) []int {
	ids := make([]int, 0, len(ins))
	for _, in := range ins {
		ids = append(ids, in.ID)
	}
	slices.Sort(ids)
	return ids
}

// TestFrameLeavesBeforeObservers runs a fibre cut through an engine wired
// with every observer skynetd attaches and pins the tail of Tick:
//
//   - a metric callback — which the history sampler, the last observer,
//     invokes — finds this tick's delta already in the hub, on every tick;
//   - the delta precedes the tick's own incident / flood / slo events on
//     the ring;
//   - opened / updated / closed and the snapshot's incidents are this
//     tick's, while flood_phase, flood_episode and slo_firing are what the
//     observers concluded at the end of the previous tick.
func TestFrameLeavesBeforeObservers(t *testing.T) {
	r := newRunner(t, smallTopo())
	eng := r.Engine
	reg := telemetry.New()
	journal := telemetry.NewJournal(0)
	eng.EnableTelemetry(reg, journal)
	eng.EnableTracing(span.NewTracer(0))
	db := tsdb.New(tsdb.Config{})
	eng.EnableHistory(tsdb.NewSampler(db, reg))
	sloEng := slo.New(db, slo.DefaultRules(100*time.Millisecond))
	eng.EnableSLO(sloEng, true)
	eng.SetTickLatencyModel(func(tick uint64) time.Duration {
		if tick >= 12 {
			return 500 * time.Millisecond
		}
		return time.Millisecond
	})
	eng.EnableProfiling(prof.NewLabeler(eng.MaxShards()))
	eng.EnableRuntimeMetrics(prof.NewRuntime(reg))
	hub := fanout.NewHub(fanout.Config{Ring: 4096})
	defer hub.Close()
	eng.EnableFanout(hub)
	journal.SetNotify(func(ev telemetry.Event) { hub.Publish(fanout.EventIncident, ev) })
	eng.EnableProvenance(provenance.New(provenance.Config{SampleEvery: 1}))
	floodRec := flood.New(flood.Config{})
	eng.EnableFlood(floodRec)
	floodRec.SetNotify(func(ev flood.Event) { hub.Publish(fanout.EventFlood, ev) })
	sloEng.SetNotify(func(ev slo.Event) { hub.Publish(fanout.EventSLO, ev) })

	var ticks uint64 // Tick calls started
	framesLate := 0
	reg.GaugeFunc("skynet_test_frame_probe", "Sampled by the history observer.", func() float64 {
		if hub.StatsSnapshot().Ticks != ticks {
			framesLate++
		}
		return 0
	})

	sc := scenario.FiberCutSevere(r.Sim.Topology(), epoch.Add(time.Minute))
	if err := sc.Inject(r.Sim); err != nil {
		t.Fatal(err)
	}
	sub, err := hub.Subscribe(fanout.SubscribeOptions{Cursor: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	phaseOf := func() (string, uint64) {
		if p := floodRec.CurrentPhase(); p != flood.PhaseIdle {
			return p.String(), floodRec.CurrentID()
		}
		return "", 0
	}
	var (
		prevPhase, prevEpisode = phaseOf()
		prevFiring             = sloEng.FiringCount()
		prevClosed             int
		batch                  alert.Batch
		phaseMoves, sloMoves   int
		opened                 int
	)
	nextTick := epoch.Add(10 * time.Second)
	for now := epoch; now.Before(epoch.Add(8 * time.Minute)); now = now.Add(2 * time.Second) {
		if err := r.Sim.Step(now); err != nil {
			t.Fatal(err)
		}
		raw := r.Fleet.Poll(r.Sim, now)
		batch.Reset()
		for i := range raw {
			batch.Append(&raw[i])
		}
		eng.IngestBatch(&batch)
		if now.Before(nextTick) {
			continue
		}
		nextTick = now.Add(10 * time.Second)
		ticks++
		res := eng.Tick(now)

		frames, _, err := sub.Poll()
		if err != nil {
			t.Fatal(err)
		}
		var delta *fanout.Frame
		events := map[fanout.Kind]int{}
		for _, f := range frames {
			switch f.Kind() {
			case fanout.KindSnapshot: // a fresh subscriber's first frame
			case fanout.KindDelta:
				if delta != nil {
					t.Fatalf("tick %d: two deltas in one poll", ticks)
				}
				delta = f
			default:
				if delta == nil || f.Seq() < delta.Seq() {
					t.Errorf("tick %d: %v event (seq %d) is ahead of the tick's delta on the ring", ticks, f.Kind(), f.Seq())
				}
				events[f.Kind()]++
			}
		}
		if delta == nil && ticks == 1 {
			// The fresh subscriber's snapshot is as of tick 1's delta and
			// stands in for it; nothing has happened yet.
			sub.ReleaseAll(frames)
			continue
		}
		if delta == nil {
			t.Fatalf("tick %d: no delta frame", ticks)
		}
		d := decodeFeed(t, delta)
		sub.ReleaseAll(frames)

		if d.Tick != ticks {
			t.Fatalf("delta carries tick %d, want %d", d.Tick, ticks)
		}
		if got, want := rowIDs(d.Opened), sortedIDs(res.NewIncidents); !slices.Equal(got, want) {
			t.Errorf("tick %d: opened = %v, want this tick's new incidents %v", ticks, got, want)
		}
		opened += len(d.Opened)
		closedNow := eng.Closed()
		if got, want := rowIDs(d.Closed), sortedIDs(closedNow[prevClosed:]); !slices.Equal(got, want) {
			t.Errorf("tick %d: closed = %v, want this tick's closed incidents %v", ticks, got, want)
		}
		prevClosed = len(closedNow)
		isOpened := map[int]bool{}
		for _, id := range rowIDs(d.Opened) {
			isOpened[id] = true
		}
		var wantUpdated []int
		for _, in := range eng.evalDirty {
			if !isOpened[in.ID] {
				wantUpdated = append(wantUpdated, in.ID)
			}
		}
		slices.Sort(wantUpdated)
		if got := rowIDs(d.Updated); !slices.Equal(got, wantUpdated) {
			t.Errorf("tick %d: updated = %v, want this tick's re-scored incidents %v", ticks, got, wantUpdated)
		}
		if d.Phase != prevPhase || d.Episode != prevEpisode || int64(d.SLOFiring) != prevFiring {
			t.Errorf("tick %d: delta summary (phase %q episode %d slo_firing %d) is not the previous tick's verdict (%q %d %d)",
				ticks, d.Phase, d.Episode, d.SLOFiring, prevPhase, prevEpisode, prevFiring)
		}

		// The observers' verdicts for this tick, which the NEXT frame
		// carries; a transition announces itself now, as an event.
		phase, episode := phaseOf()
		firing := sloEng.FiringCount()
		if phase != prevPhase {
			phaseMoves++
			if events[fanout.KindFlood] == 0 {
				t.Errorf("tick %d: flood phase moved %q → %q with no flood event on the ring", ticks, prevPhase, phase)
			}
		}
		if firing != prevFiring {
			sloMoves++
			if events[fanout.KindSLO] == 0 {
				t.Errorf("tick %d: slo_firing moved %d → %d with no slo event on the ring", ticks, prevFiring, firing)
			}
		}
		prevPhase, prevEpisode, prevFiring = phase, episode, firing

		// On the snapshot cadence, what a fresh subscriber is handed.
		if (ticks-1)%hub.SnapshotEvery() == 0 {
			fresh, err := hub.Subscribe(fanout.SubscribeOptions{Cursor: -1})
			if err != nil {
				t.Fatal(err)
			}
			fs, _, err := fresh.Poll()
			if err != nil || len(fs) == 0 || fs[0].Kind() != fanout.KindSnapshot {
				t.Fatalf("tick %d: fresh subscriber got %d frames (%v), want a snapshot first", ticks, len(fs), err)
			}
			s := decodeFeed(t, fs[0])
			fresh.ReleaseAll(fs)
			fresh.Close()
			if got, want := rowIDs(s.Incidents), sortedIDs(eng.Active()); s.Tick != ticks || !slices.Equal(got, want) {
				t.Errorf("tick %d: snapshot (tick %d) incidents = %v, want the active set %v", ticks, s.Tick, got, want)
			}
			if s.Phase != d.Phase || s.Episode != d.Episode || s.SLOFiring != d.SLOFiring {
				t.Errorf("tick %d: snapshot and delta disagree on the summary fields", ticks)
			}
		}
	}
	if framesLate != 0 {
		t.Errorf("on %d of %d ticks a metric callback ran before the tick's frame was published", framesLate, ticks)
	}
	if opened == 0 || phaseMoves == 0 || sloMoves == 0 {
		t.Fatalf("scenario exercised too little: %d opened, %d flood phase moves, %d slo_firing moves", opened, phaseMoves, sloMoves)
	}
}
