package main

// The client side of GET /api/events: a server-sent-events reader, the
// feed documents it carries, and the per-frame record the latency
// metrics are computed from.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// sseEvent is one dispatched server-sent event.
type sseEvent struct {
	id    string
	event string
	data  []byte // valid until the next call to next
}

// sseReader splits a text/event-stream into events: "field: value"
// lines up to a blank line, data lines joined by newlines, comment lines
// and unknown fields skipped, an event without data not dispatched.
type sseReader struct {
	r    *bufio.Reader
	line []byte
	data []byte
}

func newSSEReader(r io.Reader) *sseReader {
	return &sseReader{r: bufio.NewReaderSize(r, 256<<10)}
}

// readLine returns the next line without its terminator, however long.
func (s *sseReader) readLine() ([]byte, error) {
	s.line = s.line[:0]
	for {
		chunk, err := s.r.ReadSlice('\n')
		s.line = append(s.line, chunk...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return nil, err
		}
		return bytes.TrimRight(s.line, "\r\n"), nil
	}
}

func (s *sseReader) next() (sseEvent, error) {
	var ev sseEvent
	s.data = s.data[:0]
	hasData := false
	for {
		line, err := s.readLine()
		if err != nil {
			return ev, err
		}
		if len(line) == 0 {
			if hasData {
				ev.data = s.data
				return ev, nil
			}
			ev = sseEvent{}
			continue
		}
		field, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimPrefix(value, []byte(" "))
		switch string(field) {
		case "id":
			ev.id = string(value)
		case "event":
			ev.event = string(value)
		case "data":
			if hasData {
				s.data = append(s.data, '\n')
			}
			s.data = append(s.data, value...)
			hasData = true
		}
	}
}

// feedRow is the part of an incident row the benchmark reads.
type feedRow struct {
	ID   int    `json:"id"`
	Root string `json:"root"`
}

// feedDoc is a snapshot or delta document; a snapshot fills Incidents,
// a delta the other three lists.
type feedDoc struct {
	Tick      uint64    `json:"tick"`
	Time      time.Time `json:"time"`
	PubUnixNs int64     `json:"pub_unix_ns"`
	Coalesced int       `json:"coalesced"`
	Opened    []feedRow `json:"opened"`
	Updated   []feedRow `json:"updated"`
	Closed    []feedRow `json:"closed"`
	Incidents []feedRow `json:"incidents"`
}

// feedState is the active incident set a subscriber rebuilds from a
// snapshot and the deltas after it.
type feedState map[int]string

// parseFeed decodes ev if it is a feed frame; resync notices and the
// lifecycle chatter sharing the stream are not.
func parseFeed(ev sseEvent) (doc feedDoc, snapshot, ok bool, err error) {
	if ev.event != "snapshot" && ev.event != "delta" {
		return doc, false, false, nil
	}
	if err := json.Unmarshal(ev.data, &doc); err != nil {
		return doc, false, false, fmt.Errorf("%s frame %s: %w", ev.event, ev.id, err)
	}
	return doc, ev.event == "snapshot", true, nil
}

func (st feedState) apply(doc *feedDoc, snapshot bool) {
	if snapshot {
		clear(st)
		for _, r := range doc.Incidents {
			st[r.ID] = r.Root
		}
		return
	}
	for _, r := range doc.Opened {
		st[r.ID] = r.Root
	}
	for _, r := range doc.Closed {
		delete(st, r.ID)
	}
}

// roots counts the active incidents per root.
func (st feedState) roots() map[string]int {
	out := make(map[string]int, len(st))
	for _, root := range st {
		out[root]++
	}
	return out
}

// frameRecord is one delta frame as the client saw it.
type frameRecord struct {
	tick      uint64
	fired     time.Time // the daemon's ticker fire time
	published time.Time // pub_unix_ns
	read      time.Time // the client had the whole frame
	bytes     int
	rows      int
	coalesced int
}

// feedClient is the one SSE connection of a run. mu guards the records
// while the reader goroutine runs; after close they are the caller's.
type feedClient struct {
	body   io.ReadCloser
	cancel context.CancelFunc
	mu     sync.Mutex
	frames []frameRecord
	// firstSeen is when the client first read a frame whose opened or
	// incidents list names an incident with that root.
	firstSeen map[string]time.Time
	state     feedState
	err       error
	done      chan struct{}
}

// openFeed subscribes to the feed; cancelling ctx ends the stream.
func openFeed(ctx context.Context, httpAddr string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+httpAddr+"/api/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("/api/events: %s", resp.Status)
	}
	return resp.Body, nil
}

// startFeedClient subscribes and reads frames on its own goroutine until
// close is called.
func startFeedClient(ctx context.Context, httpAddr string) (*feedClient, error) {
	ctx, cancel := context.WithCancel(ctx)
	body, err := openFeed(ctx, httpAddr)
	if err != nil {
		cancel()
		return nil, err
	}
	c := &feedClient{body: body, cancel: cancel, firstSeen: map[string]time.Time{}, state: feedState{}, done: make(chan struct{})}
	go c.run()
	return c, nil
}

func (c *feedClient) run() {
	defer close(c.done)
	rd := newSSEReader(c.body)
	for {
		ev, err := rd.next()
		if err != nil {
			c.err = err
			return
		}
		read := time.Now()
		doc, snapshot, ok, err := parseFeed(ev)
		if err != nil {
			c.err = err
			return
		}
		if !ok {
			continue
		}
		c.mu.Lock()
		for _, list := range [][]feedRow{doc.Opened, doc.Incidents} {
			for _, r := range list {
				if _, seen := c.firstSeen[r.Root]; !seen {
					c.firstSeen[r.Root] = read
				}
			}
		}
		c.state.apply(&doc, snapshot)
		if !snapshot {
			c.frames = append(c.frames, frameRecord{
				tick: doc.Tick, fired: doc.Time, published: time.Unix(0, doc.PubUnixNs), read: read,
				bytes: len(ev.data), rows: len(doc.Opened) + len(doc.Updated) + len(doc.Closed),
				coalesced: max(doc.Coalesced, 1),
			})
		}
		c.mu.Unlock()
	}
}

// lastFired is the fire time of the newest delta read so far.
func (c *feedClient) lastFired() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.frames) == 0 {
		return time.Time{}
	}
	return c.frames[len(c.frames)-1].fired
}

// seenCount is how many of roots have appeared on the feed so far.
func (c *feedClient) seenCount(roots []string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, root := range roots {
		if _, ok := c.firstSeen[root]; ok {
			n++
		}
	}
	return n
}

// close ends the subscription and waits for the reader; the records are
// the caller's to read afterwards. A read error other than the close
// itself is returned. Closing twice is harmless.
func (c *feedClient) close() error {
	c.cancel()
	<-c.done
	c.body.Close()
	if c.err != nil && !errors.Is(c.err, context.Canceled) {
		return fmt.Errorf("feed client: %w", c.err)
	}
	return nil
}

// freshFeedState subscribes afresh and rebuilds the active set from the
// snapshot and the deltas up to the first tick fired after notBefore.
func freshFeedState(ctx context.Context, httpAddr string, notBefore time.Time) (feedState, error) {
	ctx, cancel := context.WithTimeout(ctx, missAfter)
	defer cancel()
	body, err := openFeed(ctx, httpAddr)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	rd := newSSEReader(body)
	st := feedState{}
	gotSnapshot := false
	for {
		ev, err := rd.next()
		if err != nil {
			return nil, fmt.Errorf("fresh subscription: %w", err)
		}
		doc, snapshot, ok, err := parseFeed(ev)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if !snapshot && !gotSnapshot {
			return nil, errors.New("fresh subscription: delta before any snapshot")
		}
		gotSnapshot = true
		st.apply(&doc, snapshot)
		if doc.Time.After(notBefore) {
			return st, nil
		}
	}
}
