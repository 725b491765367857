package fanout

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"skynet/internal/hierarchy"
)

var testEpoch = time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)

// publishTick publishes one tick the way the engine does: the delta
// (opening the given incident IDs) and the snapshot are built in
// hub-owned documents and handed over whole.
func publishTick(h *Hub, tick uint64, opened ...int) {
	at := testEpoch.Add(time.Duration(tick) * time.Second)
	d := h.AcquireDelta()
	d.Tick, d.FromTick, d.Time = tick, tick, at
	d.Structured, d.FloodPhase, d.FloodEpisode, d.Coalesced = 10, "onset", 1, 1
	for _, id := range opened {
		d.Opened = append(d.Opened, IncidentInfo{
			ID: id, Root: hierarchy.MustNew("r1", "dc1"), Severity: 0.5,
			Active: true, Alerts: 3, Locations: 2,
			Start: testEpoch, Update: at,
		})
	}
	s := h.AcquireSnapshot()
	s.Tick, s.Time = tick, at
	s.RawTotal, s.Structured, s.FloodPhase, s.FloodEpisode = int(tick)*100, 10, "onset", 1
	h.PublishTickOwned(s, d)
}

// parseFrames splits raw SSE bytes into (event, id, data) records.
func parseFrames(t *testing.T, raw []byte) []map[string]string {
	t.Helper()
	var out []map[string]string
	for _, block := range bytes.Split(raw, []byte("\n\n")) {
		if len(bytes.TrimSpace(block)) == 0 {
			continue
		}
		rec := map[string]string{}
		for _, line := range bytes.Split(block, []byte("\n")) {
			k, v, ok := bytes.Cut(line, []byte(": "))
			if !ok {
				t.Fatalf("malformed SSE line %q", line)
			}
			rec[string(k)] = string(v)
		}
		out = append(out, rec)
	}
	return out
}

func collect(t *testing.T, s *Subscriber) []map[string]string {
	t.Helper()
	frames, _, err := s.Poll()
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	var buf bytes.Buffer
	for _, f := range frames {
		buf.Write(f.Bytes())
	}
	s.ReleaseAll(frames)
	return parseFrames(t, buf.Bytes())
}

func TestFreshSubscriberGetsSnapshotThenDeltas(t *testing.T) {
	h := NewHub(Config{Ring: 8})
	defer h.Close()
	publishTick(h, 1, 1)

	sub, err := h.Subscribe(SubscribeOptions{Cursor: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	recs := collect(t, sub)
	if len(recs) != 1 || recs[0]["event"] != EventSnapshot {
		t.Fatalf("want one snapshot frame, got %+v", recs)
	}
	var snap struct {
		Tick     uint64 `json:"tick"`
		RawTotal int    `json:"raw_total"`
	}
	if err := json.Unmarshal([]byte(recs[0]["data"]), &snap); err != nil {
		t.Fatalf("snapshot data not JSON: %v\n%s", err, recs[0]["data"])
	}
	if snap.Tick != 1 || snap.RawTotal != 100 {
		t.Fatalf("snapshot content: %+v", snap)
	}

	publishTick(h, 2, 2)
	recs = collect(t, sub)
	if len(recs) != 1 || recs[0]["event"] != EventDelta {
		t.Fatalf("want one delta frame, got %+v", recs)
	}
	var delta struct {
		Tick   uint64 `json:"tick"`
		Opened []struct {
			ID   int    `json:"id"`
			Root string `json:"root"`
		} `json:"opened"`
	}
	if err := json.Unmarshal([]byte(recs[0]["data"]), &delta); err != nil {
		t.Fatalf("delta data not JSON: %v\n%s", err, recs[0]["data"])
	}
	if delta.Tick != 2 || len(delta.Opened) != 1 || delta.Opened[0].ID != 2 || delta.Opened[0].Root != "r1|dc1" {
		t.Fatalf("delta content: %+v", delta)
	}
}

func TestSubscriberBeforeFirstTickWaitsForSnapshot(t *testing.T) {
	h := NewHub(Config{Ring: 8})
	defer h.Close()
	sub, err := h.Subscribe(SubscribeOptions{Cursor: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if frames, wake, err := sub.Poll(); err != nil || frames != nil || wake == nil {
		t.Fatalf("empty poll: frames=%v wake=%v err=%v", frames, wake, err)
	}
	publishTick(h, 1)
	recs := collect(t, sub)
	if len(recs) != 1 || recs[0]["event"] != EventSnapshot {
		t.Fatalf("want snapshot after first tick, got %+v", recs)
	}
}

func TestChatterEventsCarryIDsAndKinds(t *testing.T) {
	h := NewHub(Config{Ring: 8})
	defer h.Close()
	publishTick(h, 1)
	sub, _ := h.Subscribe(SubscribeOptions{Cursor: -1})
	defer sub.Close()
	collect(t, sub) // drain the snapshot

	h.Publish(EventFlood, map[string]any{"phase": "onset"})
	h.Publish(EventIncident, map[string]any{"id": 7})
	recs := collect(t, sub)
	if len(recs) != 2 || recs[0]["event"] != EventFlood || recs[1]["event"] != EventIncident {
		t.Fatalf("chatter: %+v", recs)
	}
	if recs[0]["id"] == "" || recs[1]["id"] == "" {
		t.Fatalf("chatter frames must carry SSE ids: %+v", recs)
	}
}

func TestLastEventIDResume(t *testing.T) {
	h := NewHub(Config{Ring: 16})
	defer h.Close()
	publishTick(h, 1, 1)
	sub, _ := h.Subscribe(SubscribeOptions{Cursor: -1})
	recs := collect(t, sub)
	lastID := recs[len(recs)-1]["id"]
	sub.Close()

	publishTick(h, 2, 2)
	publishTick(h, 3, 3)

	var cursor int64
	if _, err := json.Number(lastID).Int64(); err != nil {
		t.Fatalf("id not numeric: %q", lastID)
	}
	v, _ := json.Number(lastID).Int64()
	cursor = v
	resumed, err := h.Subscribe(SubscribeOptions{Cursor: cursor})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	recs = collect(t, resumed)
	// Two pending deltas coalesce into one merged frame; no snapshot
	// (the client's state is current as of its Last-Event-ID).
	if len(recs) != 1 || recs[0]["event"] != EventDelta {
		t.Fatalf("resume: %+v", recs)
	}
	var delta struct {
		Tick      uint64 `json:"tick"`
		FromTick  uint64 `json:"from_tick"`
		Coalesced int    `json:"coalesced"`
		Opened    []struct {
			ID int `json:"id"`
		} `json:"opened"`
	}
	if err := json.Unmarshal([]byte(recs[0]["data"]), &delta); err != nil {
		t.Fatal(err)
	}
	if delta.Tick != 3 || delta.FromTick != 2 || delta.Coalesced != 2 || len(delta.Opened) != 2 {
		t.Fatalf("merged delta: %+v", delta)
	}
	if h.StatsSnapshot().Coalesced != 1 {
		t.Fatalf("coalesced counter: %+v", h.StatsSnapshot())
	}
}

func TestLaggardResyncWithDropAccounting(t *testing.T) {
	h := NewHub(Config{Ring: 4, EvictAfter: 1 << 20})
	defer h.Close()
	publishTick(h, 1)
	sub, _ := h.Subscribe(SubscribeOptions{Cursor: -1})
	defer sub.Close()
	collect(t, sub) // synced at snapshot 1

	// 8 ring frames while the subscriber sleeps: its cursor falls off
	// the 4-slot ring.
	for tick := uint64(2); tick <= 5; tick++ {
		publishTick(h, tick)
		h.Publish(EventIncident, map[string]any{"tick": tick})
	}
	recs := collect(t, sub)
	if len(recs) < 2 || recs[0]["event"] != EventResync || recs[1]["event"] != EventSnapshot {
		t.Fatalf("resync sequence: %+v", recs)
	}
	var rs struct {
		Skipped   uint64            `json:"skipped"`
		ResumeSeq uint64            `json:"resume_seq"`
		Dropped   map[string]uint64 `json:"dropped"`
		Unknown   uint64            `json:"unknown"`
	}
	if err := json.Unmarshal([]byte(recs[0]["data"]), &rs); err != nil {
		t.Fatal(err)
	}
	var acct uint64
	for _, v := range rs.Dropped {
		acct += v
	}
	acct += rs.Unknown
	if rs.Skipped == 0 || acct != rs.Skipped {
		t.Fatalf("drop accounting does not balance: %+v", rs)
	}
	st := h.StatsSnapshot()
	if st.Resyncs != 1 || st.DroppedTotal != rs.Skipped {
		t.Fatalf("hub accounting: %+v vs resync %+v", st, rs)
	}
	if _, ok := rs.Dropped["incident"]; !ok {
		t.Fatalf("per-kind drops must name incident chatter: %+v", rs)
	}

	// The frames after the resync continue seamlessly from the snapshot.
	publishTick(h, 6)
	recs = collect(t, sub)
	if len(recs) != 1 || recs[0]["event"] != EventDelta {
		t.Fatalf("post-resync: %+v", recs)
	}
}

// TestResyncSeqNeverMovesBackwards laps a subscriber while the snapshot
// is still in range and checks Frame.Seq across the resync: the id-less
// notice carries the seq of the snapshot it precedes, so the sequence a
// consumer observes is non-decreasing — through the resync itself, and
// through an SSE reconnect by a client that read the notice but dropped
// before the snapshot (its Last-Event-ID is still the pre-lap position).
func TestResyncSeqNeverMovesBackwards(t *testing.T) {
	h := NewHub(Config{Ring: 4, EvictAfter: 1 << 20})
	defer h.Close()
	publishTick(h, 1)
	sub, _ := h.Subscribe(SubscribeOptions{Cursor: -1})

	var last uint64
	observe := func(step string, frames []*Frame) {
		t.Helper()
		for _, f := range frames {
			if f.Seq() < last {
				t.Fatalf("%s: %v frame seq %d after %d", step, f.Kind(), f.Seq(), last)
			}
			last = f.Seq()
		}
	}
	frames, _, err := sub.Poll()
	if err != nil || len(frames) == 0 {
		t.Fatalf("initial poll: %d frames, err %v", len(frames), err)
	}
	observe("initial", frames)
	lastEventID := int64(last)
	sub.ReleaseAll(frames)

	for tick := uint64(2); tick <= 5; tick++ {
		publishTick(h, tick)
		h.Publish(EventIncident, map[string]any{"tick": tick})
	}
	frames, _, err = sub.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 2 || frames[0].Kind() != KindResync || frames[1].Kind() != KindSnapshot {
		t.Fatalf("lapped poll did not resync from the snapshot: %d frames", len(frames))
	}
	if frames[0].Seq() != frames[1].Seq() {
		t.Fatalf("notice seq %d, snapshot it precedes %d", frames[0].Seq(), frames[1].Seq())
	}
	if bytes.Contains(frames[0].Bytes(), []byte("id: ")) {
		t.Fatalf("resync notice must stay id-less: %q", frames[0].Bytes())
	}
	// The dropping client consumed only the notice.
	observe("notice", frames[:1])
	sub.ReleaseAll(frames)
	sub.Close()

	publishTick(h, 6)
	resumed, err := h.Subscribe(SubscribeOptions{Cursor: lastEventID})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	frames, _, err = resumed.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 2 || frames[0].Kind() != KindResync || frames[1].Kind() != KindSnapshot {
		t.Fatalf("resume from a lapped Last-Event-ID did not resync: %d frames", len(frames))
	}
	observe("resume", frames)
	resumed.ReleaseAll(frames)
}

func TestNeverPollingSubscriberIsEvicted(t *testing.T) {
	h := NewHub(Config{Ring: 4, EvictAfter: 2})
	defer h.Close()
	publishTick(h, 1)
	sub, _ := h.Subscribe(SubscribeOptions{Cursor: -1})
	collect(t, sub)

	// Eviction threshold is ring+EvictAfter = 6 frames of lag.
	for tick := uint64(2); tick <= 10; tick++ {
		publishTick(h, tick)
	}
	if _, _, err := sub.Poll(); err != ErrEvicted {
		t.Fatalf("want ErrEvicted, got %v", err)
	}
	st := h.StatsSnapshot()
	if st.Evictions != 1 || st.Subscribers != 0 {
		t.Fatalf("eviction accounting: %+v", st)
	}
}

func TestWaitRateLimitCoalesces(t *testing.T) {
	clock := testEpoch
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	h := NewHub(Config{Ring: 64, Rate: 1000, Burst: 1, Now: now})
	defer h.Close()
	publishTick(h, 1)
	sub, _ := h.Subscribe(SubscribeOptions{Cursor: -1})
	defer sub.Close()

	ctx := context.Background()
	frames, err := sub.Wait(ctx) // burst token: immediate
	if err != nil || len(frames) != 1 {
		t.Fatalf("first wait: %v %v", frames, err)
	}
	sub.ReleaseAll(frames)

	for tick := uint64(2); tick <= 4; tick++ {
		publishTick(h, tick)
	}
	mu.Lock()
	clock = clock.Add(10 * time.Millisecond) // 10 tokens at 1000/s
	mu.Unlock()
	frames, err = sub.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Three deltas pending, one merged frame delivered.
	if len(frames) != 1 || frames[0].Kind() != KindDelta {
		t.Fatalf("rate-limited wait: %d frames", len(frames))
	}
	sub.ReleaseAll(frames)
}

func TestHubCloseWakesWaiters(t *testing.T) {
	h := NewHub(Config{Ring: 8})
	sub, _ := h.Subscribe(SubscribeOptions{Cursor: -1})
	done := make(chan error, 1)
	go func() {
		_, err := sub.Wait(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	h.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not return after Close")
	}
}

func TestPublishAfterCloseIsNoop(t *testing.T) {
	h := NewHub(Config{Ring: 8})
	h.Close()
	publishTick(h, 1) // must not panic
	h.Publish(EventFlood, "x")
	if _, err := h.Subscribe(SubscribeOptions{Cursor: -1}); err != ErrClosed {
		t.Fatalf("subscribe after close: %v", err)
	}
}

func TestSnapshotFrameSharedNotCopied(t *testing.T) {
	h := NewHub(Config{Ring: 8})
	defer h.Close()
	publishTick(h, 1)
	a, _ := h.Subscribe(SubscribeOptions{Cursor: -1})
	b, _ := h.Subscribe(SubscribeOptions{Cursor: -1})
	defer a.Close()
	defer b.Close()
	fa, _, _ := a.Poll()
	fb, _, _ := b.Poll()
	if len(fa) != 1 || len(fb) != 1 || &fa[0].Bytes()[0] != &fb[0].Bytes()[0] {
		t.Fatal("subscribers must share the same snapshot buffer")
	}
	a.ReleaseAll(fa)
	b.ReleaseAll(fb)
}

func TestMergeDeltaLifecycleRules(t *testing.T) {
	mk := func(id int, sev float64) IncidentInfo {
		return IncidentInfo{ID: id, Root: hierarchy.MustNew("r1"), Severity: sev, Active: true}
	}
	closed := func(id int) IncidentInfo {
		in := mk(id, 0.9)
		in.Active = false
		in.End = testEpoch
		return in
	}
	dst := &FeedDelta{Tick: 1, FromTick: 1, Coalesced: 1,
		Opened:  []IncidentInfo{mk(1, 0.1), mk(2, 0.1)},
		Updated: []IncidentInfo{mk(9, 0.4)}}
	src := &FeedDelta{Tick: 2, FromTick: 2, Coalesced: 1,
		Opened:  []IncidentInfo{mk(3, 0.2)},
		Updated: []IncidentInfo{mk(1, 0.7), mk(9, 0.6)},
		Closed:  []IncidentInfo{closed(2), closed(8)}}
	mergeDelta(dst, src)
	if dst.Tick != 2 || dst.FromTick != 1 || dst.Coalesced != 2 {
		t.Fatalf("window: %+v", dst)
	}
	// 1 opened+updated => opened with new severity; 2 opened+closed =>
	// closed only; 3 newly opened; 9 updated twice => newest; 8 closed.
	if len(dst.Opened) != 2 || dst.Opened[0].ID != 1 || dst.Opened[0].Severity != 0.7 || dst.Opened[1].ID != 3 {
		t.Fatalf("opened: %+v", dst.Opened)
	}
	if len(dst.Updated) != 1 || dst.Updated[0].ID != 9 || dst.Updated[0].Severity != 0.6 {
		t.Fatalf("updated: %+v", dst.Updated)
	}
	if len(dst.Closed) != 2 || dst.Closed[0].ID != 2 || dst.Closed[1].ID != 8 {
		t.Fatalf("closed: %+v", dst.Closed)
	}
}

func TestJSONEscaping(t *testing.T) {
	got := string(appendJSONString(nil, "a\"b\\c\nd\x01e"))
	want := `"a\"b\\c\nd\u0001e"`
	if got != want {
		t.Fatalf("escape: %s != %s", got, want)
	}
	var s string
	if err := json.Unmarshal([]byte(got), &s); err != nil {
		t.Fatal(err)
	}
	if s != "a\"b\\c\nd\x01e" {
		t.Fatalf("round-trip: %q", s)
	}
}

func TestFloatRendering(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{{0, "0"}, {1, "1"}, {0.5, "0.5"}, {0.1234, "0.1234"}, {0.99995, "1"}, {-2.25, "-2.25"}, {12.3, "12.3"}} {
		if got := string(appendFloat(nil, tc.v)); got != tc.want {
			t.Errorf("appendFloat(%v) = %s, want %s", tc.v, got, tc.want)
		}
	}
}

func TestStatsAndMetricsNames(t *testing.T) {
	h := NewHub(Config{Ring: 8})
	defer h.Close()
	publishTick(h, 1)
	st := h.StatsSnapshot()
	if st.Published != 1 || st.Ticks != 1 || st.SnapshotBytes == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if !strings.Contains(string(mustJSON(t, st)), "queue_depth_high_water") {
		t.Fatal("stats JSON shape changed")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
