// Telemetry history and the self-monitoring loop: once per tick the
// engine samples every registry metric into the embedded tsdb store,
// evaluates the SLO burn-rate rules over it, and — when a rule burns —
// injects synthetic alerts for itself through its own ingest path under
// the reserved meta/skynetd hierarchy subtree. A degrading pipeline
// thereby surfaces as a first-class incident with provenance, exactly
// like a network failure would.

package core

import (
	"fmt"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
	"skynet/internal/slo"
	"skynet/internal/tsdb"
)

// Self-alert types injected by the self-monitoring loop. Two distinct
// failure-class types at one meta location cross the locator's
// distinct-failure threshold (A = 2), so a sustained burn becomes an
// incident on the very next tick.
const (
	SelfAlertTypeFast = "slo burn fast"
	SelfAlertTypeSlow = "slo burn slow"
)

// EnableHistory attaches the per-tick history sampler: every Tick the
// engine's (measured or modeled) latency and every registry metric are
// appended to the sampler's store at the current tick index. Call before
// the first Tick.
func (e *Engine) EnableHistory(sp *tsdb.Sampler) { e.hist = sp }

// EnableSLO attaches the burn-rate rule engine, evaluated at the end of
// every Tick against the history store — EnableHistory must be on, or
// the rules see no data. With selfMonitor set, burn verdicts feed the
// self-monitoring loop: every tick a rule is firing, the engine ingests
// two synthetic failure-class alerts at meta|skynetd|<rule>, which the
// pipeline consolidates, locates, and scores like any other alerts.
func (e *Engine) EnableSLO(eng *slo.Engine, selfMonitor bool) {
	e.sloEng = eng
	e.selfMon = selfMonitor
	e.sloLocs = e.sloLocs[:0]
	for _, r := range eng.Rules() {
		p, err := hierarchy.MetaComponent(r.Name)
		if err != nil {
			p = hierarchy.MetaRoot()
		}
		e.sloLocs = append(e.sloLocs, p)
	}
	if e.reg != nil {
		e.reg.CounterFunc("skynet_self_alerts_total",
			"Synthetic meta/skynetd alerts injected by the self-monitoring loop.",
			func() float64 { return float64(e.selfAlertsN.Load()) })
	}
}

// SetTickLatencyModel overrides the measured tick latency fed to the
// history store and SLO engine with a deterministic function of the tick
// index. This is the forced-breach scenario hook: replays install a
// model instead of perturbing the real clock, so breach runs stay
// bit-identical across worker counts.
func (e *Engine) SetTickLatencyModel(fn func(tick uint64) time.Duration) { e.latModel = fn }

// SLOEngine returns the attached burn-rate engine (nil when disabled).
func (e *Engine) SLOEngine() *slo.Engine { return e.sloEng }

// SelfAlerts reports how many synthetic self-alerts the monitoring loop
// has injected.
func (e *Engine) SelfAlerts() int64 { return e.selfAlertsN.Load() }

// observeHistory is the last observer: sample, evaluate, self-inject.
// start is the tick's wall start.
func (e *Engine) observeHistory(now, start time.Time) {
	if e.hist == nil {
		return
	}
	dur := time.Since(start)
	if e.latModel != nil {
		dur = e.latModel(e.tickCount)
	}
	e.hist.ObserveTick(e.tickCount, dur.Seconds())
	if e.sloEng == nil {
		return
	}
	verdicts := e.sloEng.Evaluate(e.tickCount)
	if !e.selfMon {
		return
	}
	for i := range verdicts {
		v := &verdicts[i]
		if !v.Firing || i >= len(e.sloLocs) {
			continue
		}
		// The alerts enter the preprocessor's pending buffer and are
		// consolidated on the next Tick — the same path and latency any
		// external alert has.
		base := alert.Alert{
			Source:   alert.SourcePatrolInspection,
			Class:    alert.ClassFailure,
			Time:     now,
			End:      now,
			Location: e.sloLocs[i],
			Count:    1,
			Raw: fmt.Sprintf("self-slo %s burning: fast %.2f slow %.2f",
				v.Rule.Name, v.FastBurn, v.SlowBurn),
		}
		fast := base
		fast.Type = SelfAlertTypeFast
		fast.Value = v.FastBurn
		slow := base
		slow.Type = SelfAlertTypeSlow
		slow.Value = v.SlowBurn
		e.Ingest(fast)
		e.Ingest(slow)
		e.selfAlertsN.Add(2)
	}
}
