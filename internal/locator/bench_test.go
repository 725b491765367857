package locator_test

// External test package: the fixture generator lives in
// internal/experiments, which imports locator.

import (
	"fmt"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/experiments"
	"skynet/internal/hierarchy"
	"skynet/internal/locator"
	"skynet/internal/topology"
)

var benchEpoch = time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)

// BenchmarkLocatorAddCheck measures main-tree insertion plus incident
// generation over a 40k-alert hotspot batch — the Figure 8c unit of work.
func BenchmarkLocatorAddCheck(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	alerts := experiments.SyntheticStructuredAlerts(topo, 40000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc := locator.New(locator.DefaultConfig(), topo)
		for j := range alerts {
			loc.Add(alerts[j])
		}
		loc.Check(benchEpoch.Add(time.Minute))
	}
}

// BenchmarkLocatorSteadyCheck measures a Check with no alert-set change:
// the cached component partition is reused and only thresholding runs,
// the per-tick cost during a long-lived flood. TestSteadyCheckZeroAllocs
// pins it at zero allocations.
func BenchmarkLocatorSteadyCheck(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	loc := locator.New(locator.DefaultConfig(), topo)
	for _, a := range experiments.SyntheticStructuredAlerts(topo, 40000, 1) {
		loc.Add(a)
	}
	now := benchEpoch.Add(time.Minute)
	loc.Check(now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc.Check(now)
	}
}

// BenchmarkLocatorWideCheck measures the locator's per-tick cost against
// the number of concurrent incidents — the axis Figure 8c lacks. N
// mutually non-adjacent production-topology ToRs (ToRs link only to their
// cluster's routers) each carry six streams, two of them failure-class,
// so each is an incident of its own; one op is a tick that re-observes 64
// of those streams and runs Check. The work a tick brings is constant, so
// the cost should grow with N only through O(N) bookkeeping.
func BenchmarkLocatorWideCheck(b *testing.B) {
	topo := topology.MustGenerate(topology.ProductionConfig())
	var tors []hierarchy.Path
	for i := range topo.Devices {
		if d := &topo.Devices[i]; d.Role == topology.RoleToR {
			tors = append(tors, d.Path)
		}
	}
	for _, n := range []int{250, 1000, 4000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) { wideCheck(b, topo, tors, n) })
	}
}

func wideCheck(b *testing.B, topo *topology.Topology, tors []hierarchy.Path, n int) {
	if len(tors) < n {
		b.Fatalf("production topology has %d ToRs, need %d", len(tors), n)
	}
	types := []struct {
		src alert.Source
		typ string
	}{
		{alert.SourcePing, alert.TypePacketLoss},
		{alert.SourcePing, alert.TypeEndToEndICMP},
		{alert.SourceOutOfBand, alert.TypeDeviceInaccessible},
		{alert.SourceOutOfBand, alert.TypeHighCPU},
		{alert.SourceSNMP, alert.TypeCRCError},
		{alert.SourceTraffic, alert.TypeTrafficCongestion},
	}
	now := benchEpoch
	streams := make([]alert.Alert, 0, n*len(types))
	for i, stride := 0, len(tors)/n; i < n; i++ {
		for _, k := range types {
			streams = append(streams, alert.Alert{
				Source: k.src, Type: k.typ, Class: alert.Classify(k.src, k.typ),
				Time: now, End: now, Location: tors[i*stride], Count: 1,
			})
		}
	}
	loc := locator.New(locator.DefaultConfig(), topo)
	loc.AddBatch(streams)
	if created := loc.Check(now); len(created) != n {
		b.Fatalf("%d devices opened %d incidents", n, len(created))
	}
	// Every stream is re-observed once per len(streams)/64 ticks — 38 s of
	// 100 ms ticks at N = 4000, well inside NodeTTL, so nothing expires.
	batch := make([]alert.Alert, 64)
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(100 * time.Millisecond)
		for j := range batch {
			batch[j] = streams[next]
			batch[j].Time, batch[j].End = now, now
			next = (next + 1) % len(streams)
		}
		loc.AddBatch(batch)
		if created := loc.Check(now); len(created) != 0 || loc.ActiveCount() != n {
			b.Fatalf("tick %d: %d created, %d active, want 0 and %d", i, len(created), loc.ActiveCount(), n)
		}
	}
}
