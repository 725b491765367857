package incident_test

// External test package: the fixture generator lives in
// internal/experiments, which imports incident.

import (
	"testing"

	"skynet/internal/alert"
	"skynet/internal/experiments"
	"skynet/internal/hierarchy"
	"skynet/internal/incident"
	"skynet/internal/topology"
)

// BenchmarkIncidentEntries measures the pooled incident output path: slab
// appends via AddRef (pre-sized with Grow, so the appends allocate
// nothing), then the revision-memoized report views the evaluator and
// status surfaces read every tick.
func BenchmarkIncidentEntries(b *testing.B) {
	topo := topology.MustGenerate(topology.SmallConfig())
	alerts := experiments.SyntheticStructuredAlerts(topo, 8000, 1)
	root := hierarchy.MustNew("RG01")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := incident.New(1, root)
		in.Grow(len(alerts))
		for j := range alerts {
			in.AddRef(&alerts[j])
		}
		if len(in.Locations()) == 0 || len(in.EntriesByClass(alert.ClassFailure)) == 0 {
			b.Fatal("incident absorbed nothing")
		}
	}
}
