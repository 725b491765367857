package status

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"skynet/internal/fanout"
	"skynet/internal/hierarchy"
)

// feedRow and feedDoc decode the parts of snapshot, delta and resync
// frames a dashboard needs to rebuild the incident set.
type feedRow struct {
	ID       int     `json:"id"`
	Severity float64 `json:"severity"`
}

type feedDoc struct {
	Tick      uint64    `json:"tick"`
	Incidents []feedRow `json:"incidents"`
	Opened    []feedRow `json:"opened"`
	Updated   []feedRow `json:"updated"`
	Closed    []feedRow `json:"closed"`
	Skipped   uint64    `json:"skipped"`
}

// feedView is one SSE client's state: the active incidents (ID →
// severity) rebuilt from the frames it was sent, and the drops its
// resync notices announced.
type feedView struct {
	active  map[int]float64
	tick    uint64
	resyncs uint64
	skipped uint64
}

// follow reads SSE frames from br into v until v has applied tick last.
func (v *feedView) follow(br *bufio.Reader, last uint64) error {
	var event, data string
	for v.tick < last {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("stream ended at tick %d of %d: %w", v.tick, last, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			if err := v.apply(event, data); err != nil {
				return err
			}
			event, data = "", ""
		}
	}
	return nil
}

func (v *feedView) apply(event, data string) error {
	switch event {
	case EventTypeSnapshot, EventTypeDelta, EventTypeResync:
	default:
		return nil // event chatter carries no feed state
	}
	var doc feedDoc
	if err := json.Unmarshal([]byte(data), &doc); err != nil {
		return fmt.Errorf("%s frame %q: %w", event, data, err)
	}
	switch event {
	case EventTypeSnapshot:
		v.active = map[int]float64{}
		for _, r := range doc.Incidents {
			v.active[r.ID] = r.Severity
		}
	case EventTypeDelta:
		for _, r := range append(doc.Opened, doc.Updated...) {
			v.active[r.ID] = r.Severity
		}
		for _, r := range doc.Closed {
			delete(v.active, r.ID)
		}
	case EventTypeResync:
		v.resyncs++
		v.skipped += doc.Skipped
		return nil
	}
	v.tick = doc.Tick
	return nil
}

// feedModel is the publisher's side: each tick opens three incidents,
// re-scores every open one, and closes those four ticks old — so every
// delta carries most of the active set.
type feedModel struct {
	active map[int]float64
	opened map[int]uint64 // id → tick opened
}

func (m *feedModel) publish(hub *fanout.Hub, tick uint64, snapshot bool) {
	at := epoch.Add(time.Duration(tick) * time.Second)
	info := func(id int, active bool) fanout.IncidentInfo {
		in := fanout.IncidentInfo{
			ID: id, Root: hierarchy.MustNew("RG01", fmt.Sprintf("CT%02d", id%16), "LS01"),
			Severity: m.active[id], Active: active, Alerts: 10 + id, Locations: 2,
			Start: epoch, Update: at,
		}
		if !active {
			in.End = at
		}
		return in
	}
	d := hub.AcquireDelta()
	d.Tick, d.FromTick, d.Time = tick, tick, at
	for _, id := range sortedIDs(m.active) {
		if m.opened[id]+4 <= tick {
			d.Closed = append(d.Closed, info(id, false))
			delete(m.active, id)
			continue
		}
		m.active[id] = float64(10*tick) + float64(id%10)
		d.Updated = append(d.Updated, info(id, true))
	}
	for id := 3 * int(tick); id < 3*int(tick)+3; id++ {
		m.active[id] = float64(10 * tick)
		m.opened[id] = tick
		d.Opened = append(d.Opened, info(id, true))
	}
	var s *fanout.FeedSnapshot
	if snapshot {
		s = hub.AcquireSnapshot()
		s.Tick, s.Time = tick, at
		for _, id := range sortedIDs(m.active) {
			s.Incidents = append(s.Incidents, info(id, true))
		}
	}
	hub.PublishTickOwned(s, d)
}

func sortedIDs(m map[int]float64) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// smallSendBuffer shrinks each accepted connection's kernel send buffer,
// so a client that stops reading blocks its handler within a few frames.
type smallSendBuffer struct{ net.Listener }

func (l smallSendBuffer) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4 << 10) // best effort; the stall assertion below checks it took
	}
	return c, err
}

// TestSSESwarmRebuildsFeed runs a few hundred real /api/events clients
// and one deliberately stalled one against a hub while ticks are
// published. Every live client must rebuild the final incident set from
// its snapshot and deltas; the stalled client, whose handler blocks on a
// full socket while the ring rolls past it, must come back through a
// drop-accounted resync; the notices all clients received must add up to
// /api/fanout's drop counters; and the publisher must never block.
func TestSSESwarmRebuildsFeed(t *testing.T) {
	const (
		clients = 200
		ticks   = 48
	)
	// Eviction off: the stalled client must come back through a resync.
	hub := fanout.NewHub(fanout.Config{Ring: 16, EvictAfter: -1})
	defer hub.Close()
	model := &feedModel{active: map[int]float64{}, opened: map[int]uint64{}}
	// Clients attach after the first tick, so each starts from a
	// snapshot and every frame it misses afterwards is a resync's.
	model.publish(hub, 1, true)

	eng, mu := loadedEngine(t)
	srv := httptest.NewUnstartedServer(NewSnapshotter(mu, eng, nil).WithEvents(hub).Handler())
	srv.Listener = smallSendBuffer{srv.Listener}
	srv.Start()
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	open := func(client *http.Client) *http.Response {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/api/events", nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Every client reads its first snapshot before publishing goes on, so
	// each handler has polled once and any frame it misses from then on
	// is one a resync notice announces. The stalled client then reads
	// nothing until every tick is out, through a small receive buffer so
	// its handler's writes block early.
	stalledClient := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if tc, ok := c.(*net.TCPConn); ok {
				_ = tc.SetReadBuffer(4 << 10)
			}
			return c, err
		},
	}}
	stalledResp := open(stalledClient)
	defer stalledResp.Body.Close()
	stalledBody := bufio.NewReader(stalledResp.Body)
	var stalled feedView
	if err := stalled.follow(stalledBody, 1); err != nil {
		t.Fatalf("stalled client: %v", err)
	}

	views := make([]feedView, clients)
	errs := make([]error, clients)
	var attached, wg sync.WaitGroup
	for i := range views {
		resp := open(http.DefaultClient)
		attached.Add(1)
		wg.Add(1)
		go func(v *feedView, errp *error) {
			defer wg.Done()
			defer resp.Body.Close()
			body := bufio.NewReader(resp.Body)
			*errp = v.follow(body, 1)
			attached.Done()
			if *errp == nil {
				*errp = v.follow(body, ticks)
			}
		}(&views[i], &errs[i])
	}
	attached.Wait()
	if n := hubSubscribers(hub); n != clients+1 {
		t.Fatalf("%d subscribers, want %d", n, clients+1)
	}

	published := make(chan struct{})
	go func() {
		defer close(published)
		// One oversized event first: whenever the stalled client's
		// handler polls, writing this blocks it until the client reads
		// again, long after the ring has rolled past its cursor.
		hub.Publish(EventTypeIncident, map[string]string{"pad": strings.Repeat("x", 64<<10)})
		for tick := uint64(2); tick <= ticks; tick++ {
			model.publish(hub, tick, tick%4 == 0 || tick == ticks)
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case <-published:
	case <-time.After(20 * time.Second):
		t.Fatal("publisher blocked behind its subscribers")
	}

	if err := stalled.follow(stalledBody, ticks); err != nil {
		t.Fatalf("stalled client: %v", err)
	}
	wg.Wait()

	want := model.active
	var resyncs, skipped uint64
	for i := range views {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(views[i].active, want) {
			t.Fatalf("client %d rebuilt %v, want %v", i, views[i].active, want)
		}
		resyncs += views[i].resyncs
		skipped += views[i].skipped
	}
	if !reflect.DeepEqual(stalled.active, want) {
		t.Fatalf("stalled client rebuilt %v, want %v", stalled.active, want)
	}
	if stalled.resyncs == 0 {
		t.Fatal("the stalled client was never resynced: its handler did not block")
	}
	resyncs += stalled.resyncs
	skipped += stalled.skipped

	resp, err := http.Get(srv.URL + "/api/fanout")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st fanout.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d resyncs (%d for the stalled client) dropping %d frames", resyncs, stalled.resyncs, skipped)
	if st.Resyncs != resyncs || st.DroppedTotal != skipped {
		t.Errorf("/api/fanout counts %d resyncs dropping %d frames; clients were told of %d dropping %d",
			st.Resyncs, st.DroppedTotal, resyncs, skipped)
	}
}
