package microbench

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/experiments"
	"skynet/internal/fanout"
	"skynet/internal/hierarchy"
	"skynet/internal/preprocess"
	"skynet/internal/topology"
)

// benchFeed builds a realistic serving payload: a snapshot carrying
// incidents active incidents and a delta with churn/3 opened, updated,
// and closed rows each — roughly one severe-failure tick at steady state.
func benchFeed(incidents, churn int) (*fanout.FeedSnapshot, *fanout.FeedDelta) {
	info := func(id int) fanout.IncidentInfo {
		return fanout.IncidentInfo{
			ID:        id,
			Root:      hierarchy.MustNew("RG01", "CT01", fmt.Sprintf("LS%02d", id%40+1)),
			Severity:  0.5 + float64(id%50)/100,
			Active:    true,
			Alerts:    120 + id,
			Locations: 8 + id%16,
			Start:     benchEpoch,
			Update:    benchEpoch.Add(time.Duration(id) * time.Second),
		}
	}
	snap := &fanout.FeedSnapshot{
		Tick: 100, Time: benchEpoch.Add(1000 * time.Second),
		RawTotal: 1_000_000, Structured: 9500, ClosedTotal: 42,
		FloodPhase: "peak", FloodEpisode: 3, SLOFiring: 1,
	}
	for i := 0; i < incidents; i++ {
		snap.Incidents = append(snap.Incidents, info(i))
	}
	delta := &fanout.FeedDelta{
		Tick: 100, FromTick: 100, Time: snap.Time,
		Structured: 9500, FloodPhase: "peak", FloodEpisode: 3, SLOFiring: 1,
	}
	for i := 0; i < churn/3; i++ {
		delta.Opened = append(delta.Opened, info(incidents+i))
		delta.Updated = append(delta.Updated, info(i))
		c := info(incidents + churn + i)
		c.Active = false
		c.End = benchEpoch.Add(time.Hour)
		delta.Closed = append(delta.Closed, c)
	}
	return snap, delta
}

// benchFanoutPublish measures one tick's publish — the whole per-tick
// cost the serving layer adds to the engine: filling the two hub-owned
// documents and handing them over, plus the bounded eviction scan and a
// single wake. 128 attached subscribers
// never poll (worst case for the publisher: nothing is ever handed
// off), pinning the property the design rests on — publish cost does
// not scale with subscriber count or subscriber behavior.
func benchFanoutPublish(b *testing.B) {
	hub := fanout.NewHub(fanout.Config{Ring: 1024, EvictAfter: -1})
	defer hub.Close()
	for i := 0; i < 128; i++ {
		if _, err := hub.Subscribe(fanout.SubscribeOptions{Cursor: -1}); err != nil {
			b.Fatal(err)
		}
	}
	snap, delta := benchFeed(64, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Tick++
		s := hub.AcquireSnapshot()
		incidents := s.Incidents
		*s = *snap
		s.Incidents = append(incidents, snap.Incidents...)
		d := hub.AcquireDelta()
		opened, updated, closed := d.Opened, d.Updated, d.Closed
		*d = *delta
		d.Tick, d.FromTick = snap.Tick, snap.Tick
		d.Opened = append(opened, delta.Opened...)
		d.Updated = append(updated, delta.Updated...)
		d.Closed = append(closed, delta.Closed...)
		hub.PublishTickOwned(s, d)
	}
}

// benchFanoutDeltaEncode measures the delta wire encode alone — the
// reflection-free JSON renderer on the publish path.
func benchFanoutDeltaEncode(b *testing.B) {
	_, delta := benchFeed(64, 24)
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = delta.AppendJSON(buf[:0], 0)
		if len(buf) == 0 {
			b.Fatal("empty encode")
		}
	}
}

// tickDriver drives the same ingest+tick rounds as the engine_tick
// benchmark, but outside the testing harness, so interference
// measurements can time arbitrary slices of ticks back to back.
type tickDriver struct {
	eng   *core.Engine
	hub   *fanout.Hub
	batch alert.Batch
	now   time.Time
	ts    [10]time.Time
}

func newTickDriver(fan bool) (*tickDriver, error) {
	topo := topology.MustGenerate(topology.SmallConfig())
	alerts := experiments.SyntheticStructuredAlerts(topo, 2000, 1)
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		return nil, err
	}
	d := &tickDriver{
		eng: core.NewEngine(core.DefaultConfig(), topo, classifier, nil, nil),
		now: benchEpoch,
	}
	if fan {
		d.hub = fanout.NewHub(fanout.Config{Ring: 1024})
		d.eng.EnableFanout(d.hub)
	}
	for j := range alerts {
		d.batch.Append(&alerts[j])
	}
	return d, nil
}

// run executes n ingest+tick rounds and returns the elapsed wall time.
func (d *tickDriver) run(n int) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		for k := range d.ts {
			d.ts[k] = d.now.Add(time.Duration(k) * time.Second)
		}
		for j := range d.batch.Time {
			d.batch.Time[j] = d.ts[j%10]
		}
		d.eng.IngestBatch(&d.batch)
		d.now = d.now.Add(10 * time.Second)
		d.eng.Tick(d.now)
	}
	return time.Since(start)
}

func (d *tickDriver) close() {
	if d.hub != nil {
		d.hub.Close()
	}
}

// TickInterference measures what attaching the fan-out hub costs the
// tick path, as a percentage (+2.0 = 2% slower). Two engines — one
// bare, one with a hub attached — live in the same process and run
// alternating timed slices of ticksPerSlice ticks; the verdict is the
// mean slowdown over the quietest slice pairs (see below). The design
// is built for noisy machines: comparing two separate testing.Benchmark
// runs fails there because absolute ns/op drifts by tens of percent
// over the seconds a benchmark takes, while interleaved slices sample
// the same noise on both sides and timing noise on a shared box is
// additive (preemption, GC pauses, cache evictions only ever add
// time), so the fastest pairs converge on the true cost. The slice order
// flips every round so a monotonic trend cannot systematically favor
// either engine, both engines share one heap so GC cost lands on both
// sides, and the warm-up runs each engine past incident build-up and
// the ring's first wrap (where the frame pools are still cold) before
// anything is timed.
func TickInterference(slices, ticksPerSlice int) (float64, error) {
	bare, err := newTickDriver(false)
	if err != nil {
		return 0, err
	}
	defer bare.close()
	fan, err := newTickDriver(true)
	if err != nil {
		return 0, err
	}
	defer fan.close()
	warm := 2 * 1024
	bare.run(warm)
	fan.run(warm)
	// The verdict is the mean ratio of the fastest pairs — the rounds
	// whose two slices have the smallest combined wall time. Taking each
	// engine's global minimum independently is not enough on a machine
	// whose clock rate wanders: the two minima can land in windows
	// running at different effective frequencies and the ratio inherits
	// the difference. A fastest pair by construction sampled both
	// engines inside the same quiet window, so its ratio compares like
	// with like; averaging the best few keeps one lucky-but-lopsided
	// pair from deciding the verdict alone. (Median and trimmed-mean
	// over all pairs were tried and rejected: they fold in the noisy
	// windows and swing several percent run to run.)
	type pair struct {
		sum   time.Duration
		ratio float64
	}
	pairs := make([]pair, 0, slices)
	for i := 0; i < slices; i++ {
		var b, f time.Duration
		if i%2 == 0 {
			b = bare.run(ticksPerSlice)
			f = fan.run(ticksPerSlice)
		} else {
			f = fan.run(ticksPerSlice)
			b = bare.run(ticksPerSlice)
		}
		pairs = append(pairs, pair{b + f, float64(f) / float64(b)})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].sum < pairs[j].sum })
	k := max(4, slices/6)
	if k > len(pairs) {
		k = len(pairs)
	}
	sum := 0.0
	for _, p := range pairs[:k] {
		sum += p.ratio
	}
	return (sum/float64(k) - 1) * 100, nil
}
