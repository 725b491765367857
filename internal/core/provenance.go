package core

import (
	"time"

	"skynet/internal/evaluator"
	"skynet/internal/incident"
	"skynet/internal/provenance"
)

// EnableProvenance attaches a lineage recorder to the engine and both
// stateful pipeline stages. Call before the first Ingest/Tick; with no
// recorder the pipeline takes no provenance branches.
func (e *Engine) EnableProvenance(rec *provenance.Recorder) {
	e.prov = rec
	e.pre.EnableProvenance(rec)
	e.loc.EnableProvenance(rec)
}

// Provenance returns the attached lineage recorder (nil when disabled).
func (e *Engine) Provenance() *provenance.Recorder { return e.prov }

// recordScores publishes the §4.3 evidence behind this tick's re-scored
// incidents onto their provenance records. Runs serially after the
// parallel Refine+Score phase; bds[i] belongs to dirty[i], and bds is
// nil when no recorder is attached.
func (e *Engine) recordScores(now time.Time, dirty []*incident.Incident, bds []evaluator.Breakdown) {
	if e.prov == nil {
		return
	}
	for i, in := range dirty {
		b := &bds[i]
		sr := &provenance.ScoreRecord{
			At:                 now,
			Severity:           b.Severity,
			Impact:             b.Impact,
			TimeFactor:         b.TimeFactor,
			R:                  b.R,
			L:                  b.L,
			DurationUnits:      b.DurationUnits,
			ImportantCustomers: b.ImportantCustomers,
			Sigmoid:            b.Sigmoid,
			TimeArg:            b.TimeArg,
		}
		if !in.Zoomed.IsRoot() && in.Zoomed != in.Root {
			sr.Zoomed = in.Zoomed.String()
		}
		if len(b.Circuits) > 0 {
			sr.Circuits = make([]provenance.CircuitTerm, len(b.Circuits))
			for j, c := range b.Circuits {
				sr.Circuits[j] = provenance.CircuitTerm{
					Name:         c.Name,
					BreakRatio:   c.BreakRatio,
					SLAOverRatio: c.SLAOverRatio,
					Importance:   c.Importance,
					Customers:    c.Customers,
					Contribution: c.Contribution,
				}
			}
		}
		e.prov.RecordScore(in.ID, sr)
	}
}
