package sop

import (
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
	"skynet/internal/incident"
	"skynet/internal/topology"
)

var epoch = time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)

// fakeExec records actions.
type fakeExec struct {
	isolated map[topology.DeviceID]bool
}

func newFakeExec() *fakeExec { return &fakeExec{isolated: map[topology.DeviceID]bool{}} }

func (f *fakeExec) Isolate(id topology.DeviceID)   { f.isolated[id] = true }
func (f *fakeExec) Deisolate(id topology.DeviceID) { delete(f.isolated, id) }

func smallTopo() *topology.Topology { return topology.MustGenerate(topology.SmallConfig()) }

// idle is a traffic oracle reporting every group at zero utilization.
func idle(string) float64 { return 0 }

func csr(topo *topology.Topology) *topology.Device {
	for i := range topo.Devices {
		if topo.Devices[i].Role == topology.RoleCSR {
			return &topo.Devices[i]
		}
	}
	return nil
}

func lossIncident(dev *topology.Device) *incident.Incident {
	in := incident.New(1, dev.Path)
	in.Add(alert.Alert{
		Source: alert.SourcePing, Type: alert.TypePacketLoss, Class: alert.ClassFailure,
		Time: epoch, End: epoch, Location: dev.Path, Value: 0.4, Count: 3,
	})
	in.Add(alert.Alert{
		Source: alert.SourceSyslog, Type: alert.TypeHardwareError, Class: alert.ClassRootCause,
		Time: epoch, End: epoch, Location: dev.Path, Count: 1,
	})
	return in
}

func TestIsolationRuleFires(t *testing.T) {
	topo := smallTopo()
	exec := newFakeExec()
	e := NewEngine(topo, exec, idle)
	dev := csr(topo)
	in := lossIncident(dev)
	got, ok := e.Consider(in, epoch)
	if !ok {
		t.Fatal("rule did not fire")
	}
	if got.Plan.Action.Kind != ActionIsolate || got.Plan.Action.Device != dev.ID {
		t.Errorf("plan = %+v", got.Plan)
	}
	if got.Plan.Rollback.Kind != ActionDeisolate {
		t.Error("rollback not prepared")
	}
	if !exec.isolated[dev.ID] {
		t.Error("device not actually isolated")
	}
	if len(e.History()) != 1 {
		t.Error("history missing")
	}
}

func TestRuleFiresOncePerIncident(t *testing.T) {
	topo := smallTopo()
	e := NewEngine(topo, newFakeExec(), idle)
	in := lossIncident(csr(topo))
	if _, ok := e.Consider(in, epoch); !ok {
		t.Fatal("first consider failed")
	}
	if _, ok := e.Consider(in, epoch.Add(time.Minute)); ok {
		t.Error("rule fired twice for the same incident")
	}
}

func TestRollback(t *testing.T) {
	topo := smallTopo()
	exec := newFakeExec()
	e := NewEngine(topo, exec, idle)
	dev := csr(topo)
	got, _ := e.Consider(lossIncident(dev), epoch)
	e.Rollback(got)
	if exec.isolated[dev.ID] {
		t.Error("rollback did not deisolate")
	}
	if !got.RolledBack {
		t.Error("execution not marked rolled back")
	}
	e.Rollback(got) // idempotent
}

func TestNoMatchGroupPeerAlerting(t *testing.T) {
	// Condition 2: a second group member alerting blocks the rule —
	// that's a group-level problem, not a lone bad device.
	topo := smallTopo()
	e := NewEngine(topo, newFakeExec(), idle)
	dev := csr(topo)
	in := lossIncident(dev)
	var peer *topology.Device
	for _, id := range topo.Group(dev.Group) {
		if id != dev.ID {
			peer = topo.Device(id)
			break
		}
	}
	in.Add(alert.Alert{
		Source: alert.SourceSyslog, Type: alert.TypeLinkDown, Class: alert.ClassRootCause,
		Time: epoch, End: epoch, Location: peer.Path, Count: 1,
	})
	if _, ok := e.Consider(in, epoch); ok {
		t.Error("rule fired despite alerting group peer")
	}
}

func TestNoMatchHighTraffic(t *testing.T) {
	// Condition 3: heavy group traffic blocks isolation.
	topo := smallTopo()
	e := NewEngine(topo, newFakeExec(), func(string) float64 { return 0.9 })
	if _, ok := e.Consider(lossIncident(csr(topo)), epoch); ok {
		t.Error("rule fired despite high group traffic")
	}
}

func TestNoMatchUnknownTraffic(t *testing.T) {
	// Condition 3 fails closed: without a traffic oracle the survivors'
	// headroom is unknown, so the rule must not isolate.
	topo := smallTopo()
	exec := newFakeExec()
	e := NewEngine(topo, exec, nil)
	dev := csr(topo)
	if _, ok := e.Consider(lossIncident(dev), epoch); ok || exec.isolated[dev.ID] {
		t.Error("rule isolated a device with group utilization unknown")
	}
}

func TestNoMatchWithoutLoss(t *testing.T) {
	topo := smallTopo()
	e := NewEngine(topo, newFakeExec(), idle)
	dev := csr(topo)
	in := incident.New(1, dev.Path)
	in.Add(alert.Alert{
		Source: alert.SourceSyslog, Type: alert.TypeLinkDown, Class: alert.ClassRootCause,
		Time: epoch, End: epoch, Location: dev.Path, Count: 1,
	})
	if _, ok := e.Consider(in, epoch); ok {
		t.Error("rule fired without packet loss")
	}
}

func TestNoMatchAreaIncident(t *testing.T) {
	// Incidents rooted above device level are unknown territory: SkyNet's
	// job, not the SOP engine's.
	topo := smallTopo()
	e := NewEngine(topo, newFakeExec(), idle)
	site := topo.Clusters()[0].Parent()
	in := incident.New(1, site)
	in.Add(alert.Alert{
		Source: alert.SourcePing, Type: alert.TypePacketLoss, Class: alert.ClassFailure,
		Time: epoch, End: epoch, Location: site, Value: 0.5, Count: 10,
	})
	if _, ok := e.Consider(in, epoch); ok {
		t.Error("rule fired for an area-scoped incident")
	}
}

func TestNoMatchLoneDeviceInGroup(t *testing.T) {
	// Isolating the only member of a group would black-hole the location.
	topo := smallTopo()
	var lone *topology.Device
	for i := range topo.Devices {
		if len(topo.Group(topo.Devices[i].Group)) == 1 {
			lone = &topo.Devices[i]
			break
		}
	}
	if lone == nil {
		t.Skip("no singleton group in this topology")
	}
	e := NewEngine(topo, newFakeExec(), idle)
	if _, ok := e.Consider(lossIncident(lone), epoch); ok {
		t.Error("rule isolated a lone group member")
	}
}

func TestCustomRule(t *testing.T) {
	topo := smallTopo()
	e := NewEngine(topo, newFakeExec(), idle)
	e.AddRule(observeRule{})
	if len(e.Rules()) != 2 {
		t.Fatal("rule not added")
	}
	// An incident the default rule rejects but the custom one accepts.
	site := topo.Clusters()[0].Parent()
	in := incident.New(9, site)
	in.Add(alert.Alert{
		Source: alert.SourceRouteMonitoring, Type: alert.TypeRouteHijack, Class: alert.ClassRootCause,
		Time: epoch, End: epoch, Location: site, Count: 1,
	})
	got, ok := e.Consider(in, epoch)
	if !ok || got.Plan.Rule != "observe-route-hijack" {
		t.Errorf("custom rule did not fire: %+v", got)
	}
}

// observeRule is a no-action rule used to test extensibility.
type observeRule struct{}

func (observeRule) Name() string { return "observe-route-hijack" }

func (o observeRule) Match(topo *topology.Topology, in *incident.Incident, util TrafficOracle) (Plan, bool) {
	for _, entries := range in.Entries() {
		for k := range entries {
			if k.Type == alert.TypeRouteHijack {
				return Plan{Rule: o.Name(), Reason: "hijack observed"}, true
			}
		}
	}
	return Plan{}, false
}

func TestActionKindStrings(t *testing.T) {
	for k := ActionNone; k <= ActionDeisolate; k++ {
		if k.String() == "" {
			t.Error("empty action name")
		}
	}
	if ActionKind(9).String() != "action(9)" {
		t.Error("out of range action name")
	}
}

func TestNilTopologyNeverMatches(t *testing.T) {
	e := NewEngine(nil, newFakeExec(), idle)
	dev := hierarchy.MustNew("R", "C", "L", "S", "K", "d")
	in := incident.New(1, dev)
	in.Add(alert.Alert{
		Source: alert.SourcePing, Type: alert.TypePacketLoss, Class: alert.ClassFailure,
		Time: epoch, End: epoch, Location: dev, Count: 1,
	})
	if _, ok := e.Consider(in, epoch); ok {
		t.Error("rule matched without a topology")
	}
}
