// Package sop implements the heuristic-rule engine that predates SkyNet
// and still handles "known failures" beside it (§7.2, §5.1 case 1):
// operator-authored rules match well-understood incident shapes and
// trigger Standard Operating Procedures automatically, always preparing a
// rollback plan so a wrong mitigation can be reverted manually.
//
// The canonical rule — the paper's worked example — isolates a device
// when:
//
//   - a device within a group is detected to be losing packets,
//   - other devices within this group do not generate alerts,
//   - the total traffic through this group is below a threshold.
package sop

import (
	"fmt"
	"time"

	"skynet/internal/alert"
	"skynet/internal/incident"
	"skynet/internal/topology"
)

// ActionKind enumerates mitigation primitives.
type ActionKind int

// The supported mitigation actions.
const (
	// ActionNone is a no-op (used as a rollback for observe-only rules).
	ActionNone ActionKind = iota
	// ActionIsolate removes a device from service.
	ActionIsolate
	// ActionDeisolate returns a device to service.
	ActionDeisolate
)

var actionNames = [...]string{
	ActionNone:      "none",
	ActionIsolate:   "isolate",
	ActionDeisolate: "deisolate",
}

// String names the action kind.
func (k ActionKind) String() string {
	if k < 0 || int(k) >= len(actionNames) {
		return fmt.Sprintf("action(%d)", int(k))
	}
	return actionNames[k]
}

// Action is one executable mitigation step.
type Action struct {
	Kind   ActionKind
	Device topology.DeviceID
}

// Plan is a matched rule's mitigation: the action plus the prepared
// rollback ("a rollback plan is prepared, enabling network operators to
// manually revert actions", §7.2).
type Plan struct {
	Rule     string
	Action   Action
	Rollback Action
	// Reason explains the match for the operator audit trail.
	Reason string
}

// Executor applies mitigation actions to the network. netsim.Simulator
// satisfies it; production would wrap the automation system.
type Executor interface {
	Isolate(topology.DeviceID)
	Deisolate(topology.DeviceID)
}

// TrafficOracle reports the current utilization of a device group's
// aggregate capacity (0..1+). The isolation rule refuses to isolate when
// the survivors could not carry the traffic. A nil oracle means
// utilization is unknown, and rules that need it stand down.
type TrafficOracle func(group string) float64

// Rule matches incidents and produces plans.
type Rule interface {
	// Name identifies the rule.
	Name() string
	// Match returns a plan when the incident fits the rule.
	Match(topo *topology.Topology, in *incident.Incident, util TrafficOracle) (Plan, bool)
}

// Execution records an applied plan.
type Execution struct {
	Plan       Plan
	IncidentID int
	At         time.Time
	RolledBack bool
}

// Engine evaluates rules against incidents and executes matching plans.
// Not safe for concurrent use.
type Engine struct {
	topo  *topology.Topology
	exec  Executor
	util  TrafficOracle
	rules []Rule

	history []*Execution
	// handled remembers incident IDs already mitigated so a rule fires
	// once per incident.
	handled map[int]bool
}

// NewEngine builds an engine with the default rule set. util may be nil:
// utilization is then unknown, so the isolation rule never fires — a
// safety check fails closed.
func NewEngine(topo *topology.Topology, exec Executor, util TrafficOracle) *Engine {
	return &Engine{
		topo:    topo,
		exec:    exec,
		util:    util,
		rules:   []Rule{DeviceLossIsolationRule{MaxGroupUtil: 0.5}},
		handled: make(map[int]bool),
	}
}

// AddRule appends an operator-authored rule (the production system
// accumulated nearly 1,000 of these).
func (e *Engine) AddRule(r Rule) { e.rules = append(e.rules, r) }

// Rules returns the installed rules.
func (e *Engine) Rules() []Rule { return e.rules }

// Consider evaluates an incident against the rules. On the first match it
// executes the plan and returns the execution record. Incidents already
// handled are skipped.
func (e *Engine) Consider(in *incident.Incident, now time.Time) (*Execution, bool) {
	if e.handled[in.ID] {
		return nil, false
	}
	for _, r := range e.rules {
		plan, ok := r.Match(e.topo, in, e.util)
		if !ok {
			continue
		}
		e.apply(plan.Action)
		exec := &Execution{Plan: plan, IncidentID: in.ID, At: now}
		e.history = append(e.history, exec)
		e.handled[in.ID] = true
		return exec, true
	}
	return nil, false
}

// Rollback reverts an execution using its prepared rollback action.
func (e *Engine) Rollback(exec *Execution) {
	if exec.RolledBack {
		return
	}
	e.apply(exec.Plan.Rollback)
	exec.RolledBack = true
}

// History returns all executions, oldest first.
func (e *Engine) History() []*Execution {
	out := make([]*Execution, len(e.history))
	copy(out, e.history)
	return out
}

func (e *Engine) apply(a Action) {
	switch a.Kind {
	case ActionIsolate:
		e.exec.Isolate(a.Device)
	case ActionDeisolate:
		e.exec.Deisolate(a.Device)
	}
}

// DeviceLossIsolationRule is the §7.2 worked example.
type DeviceLossIsolationRule struct {
	// MaxGroupUtil is the traffic threshold: above it, isolating a group
	// member would congest the survivors, so the rule stands down.
	MaxGroupUtil float64
}

// Name implements Rule.
func (DeviceLossIsolationRule) Name() string { return "device-loss-isolation" }

// Match implements Rule.
func (r DeviceLossIsolationRule) Match(topo *topology.Topology, in *incident.Incident, util TrafficOracle) (Plan, bool) {
	if topo == nil {
		return Plan{}, false
	}
	// Condition 0: the incident is scoped to exactly one device.
	dev, ok := topo.DeviceByPath(in.Root)
	if !ok {
		return Plan{}, false
	}
	// Condition 1: that device is losing packets.
	losing := false
	slab := in.EntrySlab()
	for i := range slab {
		a := &slab[i].Alert
		if a.Location == dev.Path && a.Type == alert.TypePacketLoss {
			losing = true
		}
	}
	if !losing {
		return Plan{}, false
	}
	// Condition 2: no other device in the group generates alerts.
	group := topo.Group(dev.Group)
	if len(group) < 2 {
		return Plan{}, false // lone device: isolation would black-hole the location
	}
	for _, loc := range in.Locations() {
		other, ok := topo.DeviceByPath(loc)
		if !ok || other.ID == dev.ID {
			continue
		}
		if other.Group == dev.Group {
			return Plan{}, false
		}
	}
	// Condition 3: group traffic is manageable — and known to be.
	if util == nil || util(dev.Group) > r.MaxGroupUtil {
		return Plan{}, false
	}
	return Plan{
		Rule:     r.Name(),
		Action:   Action{Kind: ActionIsolate, Device: dev.ID},
		Rollback: Action{Kind: ActionDeisolate, Device: dev.ID},
		Reason: fmt.Sprintf("device %s losing packets, group %s otherwise quiet, traffic below %.0f%%",
			dev.Name, dev.Group, r.MaxGroupUtil*100),
	}, true
}
