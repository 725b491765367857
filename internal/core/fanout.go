package core

import (
	"slices"
	"time"

	"skynet/internal/fanout"
	"skynet/internal/flood"
	"skynet/internal/incident"
)

// EnableFanout attaches the snapshot+delta serving hub: every Tick then
// publishes one compact delta (opened, updated, closed incidents, flood
// phase, SLO burn state) and, on the hub's cadence, one full feed
// snapshot into the hub's shared ring. The engine's cost is building the
// documents once — encoding is deferred to the first reader, and fan-out
// to any number of subscribers happens on the hub's side by reference.
// Call before the first Tick.
func (e *Engine) EnableFanout(h *fanout.Hub) {
	e.fan = h
	e.fanSeen = make(map[int]struct{})
}

// publish is the tick's last stage: it builds this tick's delta (and, on
// cadence, snapshot) directly into hub-owned pooled scratch and hands
// them over without a copy; only the seen set stays engine-owned. It
// returns the delta's row count. The incident lists are this tick's; the
// three summary fields (flood phase and episode, SLO rules firing) are
// what the observers concluded at the end of the PREVIOUS tick, because
// this tick's run after the frame has left. A phase or rule transition
// still reaches subscribers in its own tick, as the flood / slo event
// the observer publishes on the same ring right behind this delta.
func (e *Engine) publish(now time.Time, res *TickResult, active []*incident.Incident) int {
	if e.fan == nil {
		return 0
	}
	d := e.fan.AcquireDelta()
	d.Tick = e.tickCount
	d.FromTick = e.tickCount
	d.Time = now
	d.Structured = res.Structured
	d.Coalesced = 1

	clear(e.fanSeen)
	for _, in := range res.NewIncidents {
		e.fanSeen[in.ID] = struct{}{}
		d.Opened = append(d.Opened, fanout.NewIncidentInfo(in))
	}
	// Updated = re-scored this tick but not newly created. evalDirty is
	// in active-set order, which is deterministic across worker counts.
	for _, in := range e.evalDirty {
		if _, isNew := e.fanSeen[in.ID]; !isNew {
			d.Updated = append(d.Updated, fanout.NewIncidentInfo(in))
		}
	}
	for _, in := range e.loc.ClosedSince(e.fanClosedSeen) {
		d.Closed = append(d.Closed, fanout.NewIncidentInfo(in))
	}
	e.fanClosedSeen = e.loc.ClosedCount()
	// Delta lists are ID-sorted: the hub's coalescing merge relies on
	// it, and it makes merged deltas bit-identical for every subscriber.
	// Opened/Updated arrive nearly sorted (creation/active order);
	// Closed is in close order, which need not be.
	byID := func(a, b fanout.IncidentInfo) int { return a.ID - b.ID }
	slices.SortFunc(d.Opened, byID)
	slices.SortFunc(d.Updated, byID)
	slices.SortFunc(d.Closed, byID)

	phase, episode := "", uint64(0)
	if e.flood != nil {
		if p := e.flood.CurrentPhase(); p != flood.PhaseIdle {
			phase = p.String()
			episode = e.flood.CurrentID()
		}
	}
	firing := 0
	if e.sloEng != nil {
		firing = int(e.sloEng.FiringCount())
	}
	d.FloodPhase, d.FloodEpisode, d.SLOFiring = phase, episode, firing

	// The full snapshot — O(active incidents) to build and copy — goes
	// out on the hub's cadence only; the per-tick publish stays
	// proportional to what changed. Tick 1 always snapshots so fresh
	// subscribers have a starting point immediately.
	var s *fanout.FeedSnapshot
	if (e.tickCount-1)%e.fan.SnapshotEvery() == 0 {
		s = e.fan.AcquireSnapshot()
		s.Tick = e.tickCount
		s.Time = now
		s.RawTotal = e.rawIn
		s.Structured = res.Structured
		s.ClosedTotal = e.fanClosedSeen
		for _, in := range active {
			s.Incidents = append(s.Incidents, fanout.NewIncidentInfo(in))
		}
		s.FloodPhase, s.FloodEpisode, s.SLOFiring = phase, episode, firing
	}

	rows := len(d.Opened) + len(d.Updated) + len(d.Closed)
	e.fan.PublishTickOwned(s, d)
	return rows
}
