package alert_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/monitors"
	"skynet/internal/netsim"
	"skynet/internal/scenario"
	"skynet/internal/topology"
)

// TestJSONCatalogRoundTrip injects the whole scenario catalog into one
// simulated network and runs every raw alert the monitor fleet then emits
// — every source and type, syslog lines, link alerts with peers and
// circuit sets — through Encoder → Lines → AppendJSON. Each row must
// equal both the alert that went in and what json.Unmarshal makes of the
// same line.
func TestJSONCatalogRoundTrip(t *testing.T) {
	topo, err := topology.Generate(topology.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2024, 2, 29, 23, 50, 0, 0, time.UTC) // runs over a leap day's midnight
	at := start.Add(5 * time.Minute)
	gen := scenario.NewGenerator(topo, 7)
	big, crit := scenario.ConcurrentIncidents(topo, at)
	scs := append(scenario.DDoSMultiSite(topo, 3, at),
		scenario.FiberCutSevere(topo, at), scenario.KnownDeviceFailure(topo, at),
		scenario.UnbalancedHashCase(topo, at), big, crit,
		gen.Random(scenario.CatInfrastructure, at), gen.Random(scenario.CatRoute, at), gen.Minor(at))
	sim := netsim.New(topo, 1)
	for i := range scs {
		if err := scs[i].Inject(sim); err != nil {
			t.Fatal(err)
		}
	}
	mcfg := monitors.DefaultConfig()
	all, err := monitors.NewFleet(topo, mcfg).Run(sim, start, start.Add(15*time.Minute), mcfg.PingInterval)
	if err != nil {
		t.Fatal(err)
	}
	// A dead hop makes the traceroute monitor report an infinite
	// utilization, which JSON cannot carry: the Encoder refuses such an
	// alert, so it never reaches a decoder.
	alerts := all[:0]
	for i := range all {
		if !math.IsInf(all[i].Value, 0) {
			alerts = append(alerts, all[i])
		}
	}
	var buf bytes.Buffer
	if err := alert.WriteAll(&buf, alerts); err != nil {
		t.Fatal(err)
	}
	lines := alert.NewLines(&buf)
	var sc alert.WireScratch
	var b alert.Batch
	kinds := map[alert.TypeKey]bool{}
	for j := range alerts {
		line, err := lines.Next()
		if err != nil {
			t.Fatalf("line %d: %v", j, err)
		}
		var want alert.Alert
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		b.Reset()
		if err := b.AppendJSON(line, &sc); err != nil {
			t.Fatalf("alert %d rejected: %v\n%s", j, err, line)
		}
		var got alert.Alert
		b.AlertAt(0, &got)
		for _, ref := range []*alert.Alert{&want, &alerts[j]} {
			if got.Source != ref.Source || got.Type != ref.Type || got.Class != ref.Class ||
				!got.Time.Equal(ref.Time) || !got.End.Equal(ref.End) ||
				got.Location != ref.Location || got.Peer != ref.Peer || got.Value != ref.Value ||
				got.Count != ref.Count || got.CircuitSet != ref.CircuitSet || got.Raw != ref.Raw {
				t.Fatalf("alert %d:\n got  %+v\n want %+v", j, got, *ref)
			}
		}
		kinds[got.Key()] = true
	}
	if _, err := lines.Next(); err == nil {
		t.Error("more lines than alerts")
	}
	if len(kinds) < 15 || !kinds[alert.TypeKey{Source: alert.SourceSyslog}] {
		t.Errorf("catalog exercised too little: %d alerts of %d kinds", len(alerts), len(kinds))
	}
	t.Logf("%d alerts of %d kinds", len(alerts), len(kinds))
}
