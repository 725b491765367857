package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"sync"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/fanout"
	"skynet/internal/flight"
	"skynet/internal/hierarchy"
	"skynet/internal/provenance"
)

// TestNextTick pins the cadence decision: idle ticks at the ceiling
// after the last start; a wake ticks at once past the duty gap and is
// deferred to lastEnd + dutyFactor × lastDur inside it; a second wake
// moves nothing; an early tick pushes the ceiling back.
func TestNextTick(t *testing.T) {
	t0 := time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	const ceiling = 10 * time.Second
	const dur = 2 * time.Millisecond // duty gap: 200 ms after the end
	for _, c := range []struct {
		name                    string
		now, lastStart, lastEnd time.Time
		woken                   bool
		want                    time.Time
	}{
		{"idle waits for the ceiling after the last start", at(50 * time.Millisecond), t0, at(dur), false, at(ceiling)},
		{"idle past the ceiling ticks now", at(11 * time.Second), t0, at(dur), false, at(11 * time.Second)},
		{"wake after the duty gap ticks now", at(5 * time.Second), t0, at(dur), true, at(5 * time.Second)},
		{"wake inside the duty gap is deferred to its end", at(50 * time.Millisecond), t0, at(dur), true, at(dur + 200*time.Millisecond)},
		{"a second wake later in the gap keeps the same due time", at(150 * time.Millisecond), t0, at(dur), true, at(dur + 200*time.Millisecond)},
		{"a duty gap past the ceiling leaves the ceiling", at(50 * time.Millisecond), t0, at(dur), true, at(dur + 200*time.Millisecond)},
		{"an early tick pushes the ceiling back", at(4 * time.Second), at(3 * time.Second), at(3*time.Second + dur), false, at(3*time.Second + ceiling)},
	} {
		if got := nextTick(c.now, c.lastStart, c.lastEnd, dur, ceiling, c.woken); !got.Equal(c.want) {
			t.Errorf("%s: next tick at %v, want %v", c.name, got.Sub(t0), c.want.Sub(t0))
		}
	}
	// A tick long enough that its duty gap outlasts the ceiling: the
	// ceiling wins, wake or not.
	if got := nextTick(at(time.Second), t0, at(200*time.Millisecond), 200*time.Millisecond, ceiling, true); !got.Equal(at(ceiling)) {
		t.Errorf("long tick: next tick at %v, want the ceiling", got.Sub(t0))
	}
}

// TestTickLoopWakes drives tickLoop with a stub tick of known length: a
// wake right after start ticks at once; wakes sent throughout the
// following duty gap produce exactly one more tick, no earlier than the
// gap's end; and with no wakes nothing ticks before the ceiling.
func TestTickLoopWakes(t *testing.T) {
	const work = 4 * time.Millisecond // gap: 400 ms
	wake, stop := make(chan struct{}, 1), make(chan struct{})
	var mu sync.Mutex
	var starts, ends []time.Time
	ticked := make(chan struct{}, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tickLoop(time.Hour, wake, stop, func(now time.Time) {
			select { // the daemon's tick drains the wake it absorbs
			case <-wake:
			default:
			}
			time.Sleep(work)
			mu.Lock()
			starts, ends = append(starts, now), append(ends, time.Now())
			mu.Unlock()
			ticked <- struct{}{}
		})
	}()
	defer func() { close(stop); <-done }()
	send := func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	send()
	select {
	case <-ticked:
	case <-time.After(2 * time.Second):
		t.Fatal("a wake with no previous tick did not tick")
	}
	for deadline := time.Now().Add(250 * time.Millisecond); time.Now().Before(deadline); {
		send()
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-ticked:
	case <-time.After(5 * time.Second):
		t.Fatal("wakes inside the duty gap never ticked")
	}
	select {
	case <-ticked:
		t.Fatal("wakes inside one duty gap ticked twice")
	case <-time.After(600 * time.Millisecond):
	}
	mu.Lock()
	defer mu.Unlock()
	gap := dutyFactor * ends[0].Sub(starts[0])
	if early := ends[0].Add(gap); starts[1].Before(early) {
		t.Errorf("second tick %v after the first ended, inside the %v duty gap", starts[1].Sub(ends[0]), gap)
	}
}

// TestDaemonTicksOnNewEvidence runs the daemon as main wires it, with a
// one-hour ceiling: two failure alerts of distinct types for a fresh
// device, sent over TCP, open an incident on the hub within a second;
// the same two alerts again are no new evidence, and nothing ticks.
func TestDaemonTicksOnNewEvidence(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	d, err := wire(options{
		tcpAddr: "127.0.0.1:0", udpAddr: "127.0.0.1:0",
		provEvery:  provenance.DefaultSampleEvery,
		sloTickP99: flight.DefaultSLOTickP99, selfMonitor: true,
		profileInterval: time.Minute, profileWindow: time.Second, profileMaxWindows: 1,
		fanoutRing: 64,
	}, nil, log)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	sub, err := d.hub.Subscribe(fanout.SubscribeOptions{Cursor: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tickLoop(time.Hour, d.wake, stop, func(now time.Time) { d.tick(log, now) })
	}()
	defer func() { close(stop); <-done }()

	conn, err := net.Dial("tcp", d.srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dev := hierarchy.MustNew("RG01", "CT01", "LS01", "ST01", "CL01", "dev-fresh")
	send := func() {
		now := time.Now()
		alerts := []alert.Alert{
			{Source: alert.SourcePing, Type: alert.TypePacketLoss, Time: now, End: now, Location: dev, Value: 0.5, Count: 1},
			{Source: alert.SourcePing, Type: alert.TypeEndToEndICMP, Time: now, End: now, Location: dev, Value: 0.5, Count: 1},
		}
		if err := alert.WriteAll(conn, alerts); err != nil {
			t.Fatal(err)
		}
	}

	sent := time.Now()
	send()
	opened, frameNo := false, 0
	for deadline := sent.Add(time.Second); !opened; {
		if time.Now().After(deadline) {
			t.Fatalf("no frame opened an incident within 1s of the alerts (%d frames)", frameNo)
		}
		frames, wake, err := sub.Poll()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			// The first tick's frame is the snapshot a fresh subscriber
			// starts from; every later one is a delta.
			if f.Kind() != fanout.KindDelta && f.Kind() != fanout.KindSnapshot {
				continue
			}
			frameNo++
			doc := frameDoc(t, f)
			for _, in := range append(doc.Opened, doc.Incidents...) {
				opened = opened || in.Root == dev.String()
			}
		}
		sub.ReleaseAll(frames)
		if !opened && frames == nil {
			select {
			case <-wake:
			case <-time.After(50 * time.Millisecond):
			}
		}
	}

	send()
	for d.srv.Stats().AlertsAccepted < 4 {
		if time.Since(sent) > 5*time.Second {
			t.Fatalf("resent alerts not ingested: %+v", d.srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Longer than any duty gap a tick of this size leaves, -race included.
	time.Sleep(time.Second)
	frames, _, err := sub.Poll()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if f.Kind() == fanout.KindDelta || f.Kind() == fanout.KindSnapshot {
			t.Errorf("a repeat of known streams ticked before the ceiling: frame for tick %d", frameDoc(t, f).Tick)
		}
	}
	sub.ReleaseAll(frames)
}

// feedDoc is the part of a delta or snapshot frame the test reads.
type feedDoc struct {
	Tick      uint64    `json:"tick"`
	Opened    []feedRow `json:"opened"`
	Incidents []feedRow `json:"incidents"`
}

type feedRow struct {
	Root string `json:"root"`
}

// frameDoc decodes an SSE feed frame's data line.
func frameDoc(t *testing.T, f *fanout.Frame) feedDoc {
	t.Helper()
	b := f.Bytes()
	i := bytes.Index(b, []byte("data: "))
	var doc feedDoc
	if i < 0 || json.Unmarshal(bytes.TrimSpace(b[i+len("data: "):]), &doc) != nil {
		t.Fatalf("undecodable delta frame %q", b)
	}
	return doc
}
