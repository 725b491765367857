package main

// Spans recorded around the calls into each layer during the traced
// replay: held in memory, written out when the replay ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spanRec is one timed call. Parent is an index into the same list, -1
// for a tick window's root; Tick is the window the call belongs to.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the replay's start
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Tick   int32  `json:"tick"`
	// Count is the work done inside: alerts, rows or incidents.
	Count int `json:"count"`
}

// tracer collects spans; with off set it records nothing, which is what
// trace.overhead_share compares against.
type tracer struct {
	off   bool
	t0    time.Time
	spans []spanRec
}

func (t *tracer) begin(name string, parent, tick int) int {
	if t.off {
		return -1
	}
	t.spans = append(t.spans, spanRec{Name: name, Start: int64(time.Since(t.t0)), Parent: int32(parent), Tick: int32(tick)})
	return len(t.spans) - 1
}

func (t *tracer) end(id, count int) {
	if t.off {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].Count = count
}

// durations lists the lengths, in ns, of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].End-t.spans[i].Start))
		}
	}
	return out
}

// total sums the lengths and counts of every span called name.
func (t *tracer) total(name string) (ns float64, count int) {
	for i := range t.spans {
		if t.spans[i].Name == name {
			ns += float64(t.spans[i].End - t.spans[i].Start)
			count += t.spans[i].Count
		}
	}
	return ns, count
}

// selfTimes is each span's length minus the part its children cover,
// summed by name.
func (t *tracer) selfTimes() map[string]float64 {
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		d := t.spans[i].End - t.spans[i].Start
		self[i] += d
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= d
		}
	}
	out := map[string]float64{}
	for i := range t.spans {
		out[t.spans[i].Name] += float64(self[i])
	}
	return out
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(struct {
		SelfNs map[string]float64 `json:"self_ns_by_name"`
		Spans  []spanRec          `json:"spans"`
	}{t.selfTimes(), t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
