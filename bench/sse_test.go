package main

import (
	"io"
	"strings"
	"testing"
)

func TestSSEReader(t *testing.T) {
	long := strings.Repeat("x", 600<<10) // longer than the reader's buffer
	stream := ": keep-alive comment\n" +
		"id: 7\nevent: delta\ndata: {\"tick\":2,\ndata: \"structured\":0}\n\n" +
		"event: incident\ndata: {\"kind\":\"created\"}\n\n" +
		"event: orphan\n\n" + // no data: not dispatched, and must not leak into the next
		"retry: 1000\ndata: " + long + "\r\n\r\n" +
		"id: 9\nevent: delta\ndata: unterminated"
	rd := newSSEReader(strings.NewReader(stream))

	ev, err := rd.next()
	if err != nil || ev.id != "7" || ev.event != "delta" || string(ev.data) != "{\"tick\":2,\n\"structured\":0}" {
		t.Fatalf("multi-line event: %+v %q %v", ev, ev.data, err)
	}
	ev, err = rd.next()
	if err != nil || ev.id != "" || ev.event != "incident" {
		t.Fatalf("second event: %+v %v", ev, err)
	}
	ev, err = rd.next()
	if err != nil || ev.event != "" || len(ev.data) != len(long) {
		t.Fatalf("long event: event %q, %d bytes, %v", ev.event, len(ev.data), err)
	}
	if _, err = rd.next(); err != io.EOF {
		t.Fatalf("an event cut off by the end of the stream must not be dispatched: %v", err)
	}
}

func TestParseFeedIgnoresOtherEvents(t *testing.T) {
	for _, event := range []string{"resync", "incident", "anomaly", "flood", "slo", "eviction", ""} {
		_, _, ok, err := parseFeed(sseEvent{event: event, data: []byte(`{"skipped":3}`)})
		if ok || err != nil {
			t.Errorf("%q event: ok=%v err=%v, want ignored", event, ok, err)
		}
	}
	if _, _, _, err := parseFeed(sseEvent{event: "delta", id: "4", data: []byte(`{"tick":`)}); err == nil {
		t.Error("a torn delta must be an error, not skipped")
	}
}

func TestFeedStateFollowsSnapshotAndDeltas(t *testing.T) {
	frames := []sseEvent{
		{event: "delta", data: []byte(`{"tick":3,"time":"2026-01-01T00:00:00.75Z","opened":[{"id":1,"root":"RG01|CT01"}]}`)},
		{event: "resync", data: []byte(`{"skipped":2}`)},
		{event: "snapshot", data: []byte(`{"tick":9,"time":"2026-01-01T00:00:02.25Z","pub_unix_ns":5,"incidents":[{"id":2,"root":"a"},{"id":3,"root":"b"}]}`)},
		{event: "delta", data: []byte(`{"tick":10,"time":"2026-01-01T00:00:02.5Z","opened":[{"id":4,"root":"b"}],"updated":[{"id":2,"root":"a"}],"closed":[{"id":3,"root":"b"}]}`)},
	}
	st := feedState{}
	var last feedDoc
	for _, ev := range frames {
		doc, snapshot, ok, err := parseFeed(ev)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			st.apply(&doc, snapshot)
			last = doc
		}
	}
	roots := st.roots()
	if len(st) != 2 || roots["a"] != 1 || roots["b"] != 1 || roots["RG01|CT01"] != 0 {
		t.Errorf("state %v: the snapshot replaces what came before, then the delta opens 4 and closes 3", st)
	}
	if last.Tick != 10 || last.Time.Nanosecond() != 500_000_000 {
		t.Errorf("last doc %+v", last)
	}
}
