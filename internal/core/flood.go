package core

import (
	"time"

	"skynet/internal/alert"
	"skynet/internal/flood"
	"skynet/internal/incident"
	"skynet/internal/span"
)

// EnableFlood attaches a flood-episode recorder to the engine: every
// raw alert feeds the detector's rate tap, and every tick advances its
// episode state machine. While an episode is open the engine threads
// its ID through the other observability layers — the tick's span trace
// and the provenance records of incidents attributed to the episode —
// so metrics, traces, lineage, and flood reports all join on one key.
// Call before the first Ingest/Tick; with no recorder the pipeline
// takes no flood branches.
func (e *Engine) EnableFlood(r *flood.Recorder) {
	e.flood = r
}

// Flood returns the attached flood recorder (nil when disabled).
func (e *Engine) Flood() *flood.Recorder { return e.flood }

// observeFlood runs the flood detector for one tick and tags the
// tick's telemetry with the resulting episode ID. Called with the tick's
// still-open span builder so the trace carries the episode.
func (e *Engine) observeFlood(now time.Time, structured []alert.Alert, created, active []*incident.Incident, act *span.Active) {
	if e.flood == nil {
		return
	}
	closedInc := e.loc.ClosedSince(e.floodClosedSeen)
	e.floodClosedSeen = e.loc.ClosedCount()
	out := e.flood.ObserveTick(now, e.tickCount, structured, created, active, closedInc)
	// Keep the profiler's episode label in lockstep with the detector:
	// tag label contexts when an episode opens, untag when it closes —
	// the close transition is why this runs before the idle early-return.
	e.profL.SetEpisode(out.EpisodeID)
	if out.EpisodeID == 0 {
		return
	}
	act.SetEpisode(out.EpisodeID)
	if e.prov != nil {
		for _, id := range out.Adopted {
			e.prov.SetEpisode(id, out.EpisodeID)
		}
	}
}
