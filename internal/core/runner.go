package core

import (
	"fmt"
	"slices"
	"time"

	"skynet/internal/alert"
	"skynet/internal/monitors"
	"skynet/internal/netsim"
	"skynet/internal/preprocess"
	"skynet/internal/sop"
	"skynet/internal/topology"
	"skynet/internal/zoomin"
)

// Runner binds a simulator, a monitor fleet, and an engine into one
// closed loop: the standard harness for scenarios, examples, and the
// evaluation experiments. Mitigations the engine's SOP performs (device
// isolation) feed back into the simulator, so automatic mitigation is
// observable end to end.
type Runner struct {
	Sim    *netsim.Simulator
	Fleet  *monitors.Fleet
	Engine *Engine

	// SimTick is the simulator step (default: the ping cadence).
	SimTick time.Duration
	// EngineTick is the pipeline cadence (default 10 s).
	EngineTick time.Duration
	// Tap, when set, observes every raw alert as it is ingested —
	// experiments use it to retain the raw flood for coverage analyses.
	Tap func(alert.Alert)
}

// NewRunner builds the closed loop over a topology with the bootstrap
// syslog classifier and the simulator as SOP executor. A non-empty
// sources list restricts the monitor fleet (the Fig. 8a coverage
// ablation).
func NewRunner(topo *topology.Topology, engineCfg Config, monCfg monitors.Config, simSeed int64, sources ...alert.Source) (*Runner, error) {
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		return nil, fmt.Errorf("core: bootstrap classifier: %w", err)
	}
	sim := netsim.New(topo, simSeed)
	fleet := monitors.NewFleet(topo, monCfg, sources...)
	util := groupUtilOracle(sim, topo)
	eng := NewEngine(engineCfg, topo, classifier, sim, util)
	return &Runner{
		Sim:        sim,
		Fleet:      fleet,
		Engine:     eng,
		SimTick:    monCfg.PingInterval,
		EngineTick: 10 * time.Second,
	}, nil
}

// groupUtilOracle derives a device group's aggregate utilization from the
// simulator — the SOP engine's traffic-threshold input.
func groupUtilOracle(sim *netsim.Simulator, topo *topology.Topology) sop.TrafficOracle {
	return func(group string) float64 {
		ids := topo.Group(group)
		if len(ids) == 0 {
			return 0
		}
		var capTotal, demand float64
		seen := map[topology.LinkID]bool{}
		for _, id := range ids {
			for _, lid := range topo.LinksOf(id) {
				if seen[lid] {
					continue
				}
				seen[lid] = true
				l := topo.Link(lid)
				ls := sim.LinkState(lid)
				availFrac := 1 - float64(ls.CircuitsDown)/float64(l.Circuits)
				capTotal += l.CapacityGbps * availFrac
				demand += l.CapacityGbps * sim.BaselineUtil(lid) * ls.DemandMultiplier
			}
		}
		if capTotal <= 0 {
			return 1
		}
		return demand / capTotal
	}
}

// RunStats summarizes one Run window.
type RunStats struct {
	RawAlerts     int
	Structured    int
	NewIncidents  int
	SOPExecutions int
}

// Run drives the loop from 'from' to 'to'. Faults must already be injected
// into r.Sim.
func (r *Runner) Run(from, to time.Time) (RunStats, error) {
	var stats RunStats
	simTick := r.SimTick
	if simTick <= 0 {
		simTick = 2 * time.Second
	}
	engTick := r.EngineTick
	if engTick <= 0 {
		engTick = 10 * time.Second
	}
	nextEngine := from.Add(engTick)
	var batch alert.Batch
	for now := from; now.Before(to); now = now.Add(simTick) {
		if err := r.Sim.Step(now); err != nil {
			return stats, err
		}
		raw := r.Fleet.Poll(r.Sim, now)
		stats.RawAlerts += len(raw)
		batch.Reset()
		for i := range raw {
			if r.Tap != nil {
				r.Tap(raw[i])
			}
			batch.Append(&raw[i])
		}
		r.Engine.IngestBatch(&batch)
		if !now.Before(nextEngine) {
			r.pushReachability()
			res := r.Engine.Tick(now)
			stats.Structured += res.Structured
			stats.NewIncidents += len(res.NewIncidents)
			stats.SOPExecutions += len(res.SOPExecutions)
			nextEngine = now.Add(engTick)
		}
	}
	// Final tick so trailing alerts are processed.
	r.pushReachability()
	res := r.Engine.Tick(to)
	stats.Structured += res.Structured
	stats.NewIncidents += len(res.NewIncidents)
	stats.SOPExecutions += len(res.SOPExecutions)
	return stats, nil
}

// pushReachability converts the ping monitor's latest matrix into zoom-in
// samples.
func (r *Runner) pushReachability() {
	ping := r.Fleet.Ping()
	if ping == nil {
		return
	}
	m := ping.Matrix()
	if len(m) == 0 {
		return
	}
	samples := make([]zoomin.Sample, 0, len(m))
	for k, loss := range m {
		samples = append(samples, zoomin.Sample{Src: k.Src, Dst: k.Dst, Loss: loss})
	}
	// The matrix is a map; sort so the sample order — which zoom-in's
	// float accumulation and tie-breaking observe — is identical across
	// runs. Without this, Zoomed can flap between equal-loss candidates
	// from run to run (and SetReachability would see every refresh as a
	// change).
	slices.SortFunc(samples, func(a, b zoomin.Sample) int {
		if c := a.Src.Compare(b.Src); c != 0 {
			return c
		}
		return a.Dst.Compare(b.Dst)
	})
	r.Engine.SetReachability(samples)
}
