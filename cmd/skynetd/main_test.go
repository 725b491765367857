package main

import (
	"io"
	"log/slog"
	"testing"
	"time"

	"skynet/internal/flight"
	"skynet/internal/provenance"
	"skynet/internal/tsdb"
)

// TestMetricCallbacksAllocateNothing pins the Registry.GaugeFunc /
// CounterFunc contract on the registry exactly as main wires it (wire is
// what main calls, so every callback the daemon registers is here): the
// history sampler reads all of them once per tick, on the tick goroutine,
// under the engine lock, and in steady state that allocates nothing. The
// store is a small one of the test's own so its retention horizons are
// reached quickly; tsdb's TestSamplerSteadyStateAllocs covers the store.
func TestMetricCallbacksAllocateNothing(t *testing.T) {
	d, err := wire(options{
		tcpAddr: "127.0.0.1:0", udpAddr: "127.0.0.1:0",
		provEvery:  provenance.DefaultSampleEvery,
		sloTickP99: flight.DefaultSLOTickP99, selfMonitor: true,
		profileInterval: time.Minute, profileWindow: time.Second, profileMaxWindows: 1,
		fanoutRing: 64,
	}, nil, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()

	db := tsdb.New(tsdb.Config{RawRetention: 64, Tier10Retention: 640, Tier100Retention: 6400, RecentWindow: 32})
	sp := tsdb.NewSampler(db, d.reg)
	tick := uint64(0)
	step := func() {
		sp.ObserveTick(tick, 0.0015)
		tick++
	}
	for tick < 20000 {
		step()
	}
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Fatalf("sampling the daemon's registry allocates %.3f times per tick, want 0: a metric callback (or a series' storage) allocates", allocs)
	}
}
