package prof

import (
	"bytes"
	"context"
	"runtime"
	"runtime/pprof"
	"testing"
)

// TestParseHeapProfile round-trips a real runtime profile through the
// decoder: the heap profile always has samples and a fixed four-dimension
// value schema, so the assertions are deterministic.
func TestParseHeapProfile(t *testing.T) {
	// Guarantee at least one live allocation large enough to sample, and
	// a completed GC cycle after it: the heap profile reports in-use
	// bytes as of the last one, and reads 0 when everything sampled
	// before it has since been freed.
	sink := make([]byte, 1<<20)
	defer func() { _ = sink[0] }()
	runtime.GC()

	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatalf("write heap profile: %v", err)
	}
	p, err := ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("parse heap profile: %v", err)
	}
	if len(p.SampleTypes) != 4 {
		t.Fatalf("heap profile has %d sample types, want 4 (%+v)", len(p.SampleTypes), p.SampleTypes)
	}
	// alloc_objects/count, alloc_space/bytes, inuse_objects/count,
	// inuse_space/bytes — ValueIndex takes the last match.
	if vi := p.ValueIndex("bytes"); vi != 3 {
		t.Errorf("ValueIndex(bytes) = %d, want 3", vi)
	}
	if vi := p.ValueIndex("count"); vi != 2 {
		t.Errorf("ValueIndex(count) = %d, want 2", vi)
	}
	if len(p.Samples) == 0 {
		t.Fatal("heap profile decoded zero samples")
	}
	byLabel, total := p.SumByLabel(LabelStage, p.ValueIndex("bytes"))
	if total <= 0 {
		t.Errorf("heap in-use bytes total = %d, want > 0", total)
	}
	// Heap samples carry no stage labels: everything lands in "".
	if byLabel[""] != total {
		t.Errorf("unlabeled bucket %d != total %d", byLabel[""], total)
	}
}

// TestParseGoroutineLabels verifies the decoder surfaces string labels —
// the property the whole stage-attribution pipeline rests on.
func TestParseGoroutineLabels(t *testing.T) {
	defer clearLabels()
	pprof.SetGoroutineLabels(pprof.WithLabels(
		context.Background(), pprof.Labels("stage", "proto_test", "shard", "9")))

	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatalf("write goroutine profile: %v", err)
	}
	p, err := ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("parse goroutine profile: %v", err)
	}
	for _, s := range p.Samples {
		if s.Labels["stage"] == "proto_test" && s.Labels["shard"] == "9" {
			return
		}
	}
	t.Error("decoder never surfaced the stage=proto_test shard=9 label pair")
}

// TestParseProfileErrors pins the decoder's failure modes on malformed
// input: it must reject truncated bytes rather than mis-read them.
func TestParseProfileErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"dangling length-delimited tag", []byte{0x0a}},
		{"length past end", []byte{0x0a, 0x05, 0x01}},
		{"truncated varint", []byte{0x50, 0x80}},
		{"gzip magic without body", []byte{0x1f, 0x8b}},
		{"varint overflow", append([]byte{0x50}, bytes.Repeat([]byte{0x80}, 10)...)},
	}
	for _, tc := range cases {
		if _, err := ParseProfile(tc.data); err == nil {
			t.Errorf("%s: ParseProfile accepted malformed input", tc.name)
		}
	}
	// Empty input is a valid empty profile, not an error.
	p, err := ParseProfile(nil)
	if err != nil {
		t.Fatalf("empty profile: %v", err)
	}
	if len(p.Samples) != 0 || len(p.SampleTypes) != 0 {
		t.Error("empty input decoded non-empty profile")
	}
}

// TestSumByLabelInvalidIndex pins the guard rails: a negative value index
// (unit not present) sums to nothing instead of panicking.
func TestSumByLabelInvalidIndex(t *testing.T) {
	p := &Profile{Samples: []ProfileSample{{Values: []int64{1}}}}
	byLabel, total := p.SumByLabel("stage", -1)
	if total != 0 || len(byLabel) != 0 {
		t.Errorf("SumByLabel(-1) = %v total %d, want empty", byLabel, total)
	}
	if vi := p.ValueIndex("nanoseconds"); vi != -1 {
		t.Errorf("ValueIndex on empty schema = %d, want -1", vi)
	}
}
