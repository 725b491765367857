package fanout

import (
	"fmt"
	"testing"
	"time"

	"skynet/internal/hierarchy"
)

// benchFeed builds a realistic serving payload: a snapshot carrying
// incidents active incidents and a delta with churn/3 opened, updated,
// and closed rows each — roughly one severe-failure tick at steady state.
func benchFeed(incidents, churn int) (*FeedSnapshot, *FeedDelta) {
	info := func(id int) IncidentInfo {
		return IncidentInfo{
			ID:        id,
			Root:      hierarchy.MustNew("RG01", "CT01", fmt.Sprintf("LS%02d", id%40+1)),
			Severity:  0.5 + float64(id%50)/100,
			Active:    true,
			Alerts:    120 + id,
			Locations: 8 + id%16,
			Start:     testEpoch,
			Update:    testEpoch.Add(time.Duration(id) * time.Second),
		}
	}
	snap := &FeedSnapshot{
		Tick: 100, Time: testEpoch.Add(1000 * time.Second),
		RawTotal: 1_000_000, Structured: 9500, ClosedTotal: 42,
		FloodPhase: "peak", FloodEpisode: 3, SLOFiring: 1,
	}
	for i := 0; i < incidents; i++ {
		snap.Incidents = append(snap.Incidents, info(i))
	}
	delta := &FeedDelta{
		Tick: 100, FromTick: 100, Time: snap.Time,
		Structured: 9500, FloodPhase: "peak", FloodEpisode: 3, SLOFiring: 1,
	}
	for i := 0; i < churn/3; i++ {
		delta.Opened = append(delta.Opened, info(incidents+i))
		delta.Updated = append(delta.Updated, info(i))
		c := info(incidents + churn + i)
		c.Active = false
		c.End = testEpoch.Add(time.Hour)
		delta.Closed = append(delta.Closed, c)
	}
	return snap, delta
}

// publishFeed publishes the next tick the way the engine does: snap and
// delta are copied into hub-owned documents and handed over whole.
func publishFeed(hub *Hub, snap *FeedSnapshot, delta *FeedDelta) {
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

// newHubWithIdleSubscribers attaches subs subscribers that never poll —
// the publisher's worst case, since nothing is ever handed off.
func newHubWithIdleSubscribers(tb testing.TB, subs int) *Hub {
	hub := NewHub(Config{Ring: 1024, EvictAfter: -1})
	tb.Cleanup(hub.Close)
	for i := 0; i < subs; i++ {
		if _, err := hub.Subscribe(SubscribeOptions{Cursor: -1}); err != nil {
			tb.Fatal(err)
		}
	}
	return hub
}

// BenchmarkPublish measures one tick's publish — the whole per-tick cost
// the serving layer adds to the engine: filling the two hub-owned
// documents, handing them over, the bounded eviction scan and a single
// wake. The sub-benchmarks differ only in how many never-polling
// subscribers are attached; publish cost must not grow with them.
func BenchmarkPublish(b *testing.B) {
	for _, subs := range []int{0, 128, 10000} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			hub := newHubWithIdleSubscribers(b, subs)
			snap, delta := benchFeed(64, 24)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				publishFeed(hub, snap, delta)
			}
		})
	}
}

// BenchmarkDeltaEncode measures the delta wire encode alone — the
// reflection-free JSON renderer a frame's first reader runs.
func BenchmarkDeltaEncode(b *testing.B) {
	_, delta := benchFeed(64, 24)
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = delta.appendJSON(buf[:0], 0)
		if len(buf) == 0 {
			b.Fatal("empty encode")
		}
	}
}

// TestPublishAllocsIndependentOfSubscribers pins the property the
// serving design rests on: what a tick's publish allocates does not
// depend on how many subscribers are attached, even 10 000 that never
// poll.
func TestPublishAllocsIndependentOfSubscribers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops documents at random under the race detector")
	}
	allocs := func(subs int) float64 {
		hub := newHubWithIdleSubscribers(t, subs)
		snap, delta := benchFeed(64, 24)
		for i := 0; i < 2*1024; i++ { // wrap the ring twice: every pool is warm
			publishFeed(hub, snap, delta)
		}
		return testing.AllocsPerRun(200, func() { publishFeed(hub, snap, delta) })
	}
	none, many := allocs(0), allocs(10000)
	if many != none {
		t.Errorf("publish allocates %.0f times with 10 000 idle subscribers, %.0f with none", many, none)
	}
}
