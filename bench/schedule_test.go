package main

import (
	"bytes"
	"testing"
	"time"
)

// renderAll renders a whole open-loop plan against t0.
func renderAll(p *plan, t0 time.Time) []byte {
	var buf []byte
	var ends []int
	for s := range p.slotEnd {
		buf, ends = p.renderSlot(s, t0.Add(time.Duration(s)*slotEvery), int(p.slotProbe[s]), p.spec.udp, buf, ends[:0])
	}
	return buf
}

func TestSameSeedSameBytes(t *testing.T) {
	t0 := time.Date(2026, 9, 30, 12, 0, 0, 0, time.UTC)
	for _, name := range []string{"flood_tcp", "wide_udp"} {
		spec, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := buildPools(spec.wide)
		if err != nil {
			t.Fatal(err)
		}
		render := func(seed int64) []byte {
			p, err := newPlan(spec, pl, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			return renderAll(p, t0)
		}
		a, b, c := render(7), render(7), render(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed and T0 gave different bytes", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: another seed gave the same bytes", name)
		}
		if bytes.Equal(a, renderAll(mustPlan(t, spec, pl, 7), t0.Add(time.Second))) {
			t.Errorf("%s: another T0 gave the same bytes: nothing was restamped", name)
		}
	}
}

func mustPlan(t *testing.T, spec *workloadSpec, pl *pools, seed int64) *plan {
	t.Helper()
	p, err := newPlan(spec, pl, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Both encodings of a slot must decode, through the decoders the ingest
// readers use, to the same alerts stamped due minus their lateness.
func TestRenderedSlotsDecodeWithDueStamps(t *testing.T) {
	spec, _ := findWorkload("flood_tcp")
	pl, err := buildPools(spec.wide)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, spec, pl, 3)
	due := time.Date(2026, 9, 30, 12, 0, 0, 1_000_000, time.UTC)
	var slot, probe int
	for slot = range p.slotProbe {
		if p.slotProbe[slot] >= 0 {
			probe = int(p.slotProbe[slot])
			break
		}
	}
	var dec decoder
	var stamps [2][]time.Time
	for i, udp := range []bool{false, true} {
		buf, ends := p.renderSlot(slot, due, probe, udp, nil, nil)
		batches, err := dec.decode(buf, ends, udp)
		if err != nil {
			t.Fatalf("udp=%v: %v", udp, err)
		}
		for _, b := range batches {
			for r := 0; r < b.Len(); r++ {
				if !b.Time[r].Equal(b.End[r]) {
					t.Fatalf("udp=%v row %d: time %v, end %v", udp, r, b.Time[r], b.End[r])
				}
				stamps[i] = append(stamps[i], b.Time[r])
			}
		}
	}
	items := p.slotItems(slot)
	if len(stamps[0]) != len(items)+2 || len(stamps[1]) != len(stamps[0]) {
		t.Fatalf("decoded %d and %d alerts, want %d and the probe's two", len(stamps[0]), len(stamps[1]), len(items))
	}
	late := 0
	for i, it := range items {
		want := due.Add(-time.Duration(it.lateMs) * time.Millisecond)
		if !stamps[0][i].Equal(want) || !stamps[1][i].Equal(want) {
			t.Fatalf("alert %d stamped %v (json) %v (wire), want %v", i, stamps[0][i], stamps[1][i], want)
		}
		if it.lateMs > 0 {
			late++
		}
	}
	for i := len(items); i < len(items)+2; i++ {
		if !stamps[0][i].Equal(due) {
			t.Fatalf("probe alert stamped %v, want its due time %v", stamps[0][i], due)
		}
	}
	total := 0
	for _, it := range p.items {
		if it.lateMs > 0 {
			total++
		}
	}
	if share := float64(total) / float64(len(p.items)); share < lateShare*0.8 || share > lateShare*1.2 {
		t.Errorf("late share %.3f, want about %.2f", share, lateShare)
	}
}

func TestWidePlanBringsEveryDeviceIn(t *testing.T) {
	spec, _ := findWorkload("wide_udp")
	pl, err := buildPools(spec.wide)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, spec, pl, 1)
	devices := len(pl.roots)
	if devices < 900 || len(pl.alerts) != devices*wideTypesPerDevice {
		t.Fatalf("%d devices, %d alerts", devices, len(pl.alerts))
	}
	first := map[int32]int{} // device -> slot of first appearance
	for s := range p.slotEnd {
		items := p.slotItems(s)
		if len(items) < spec.rate/int(time.Second/slotEvery) {
			t.Fatalf("slot %d carries %d alerts", s, len(items))
		}
		for _, it := range items {
			if _, ok := first[it.payload/wideTypesPerDevice]; !ok {
				first[it.payload/wideTypesPerDevice] = s
			}
		}
	}
	if len(first) != devices {
		t.Fatalf("%d of %d devices ever appear", len(first), devices)
	}
	lastArrival := 0
	for _, s := range first {
		lastArrival = max(lastArrival, s)
	}
	if want := int(float64(len(p.slotEnd)) * wideArriveShare); lastArrival > want || lastArrival < want*9/10 {
		t.Errorf("last device arrives in slot %d, want by slot %d", lastArrival, want)
	}
}

func TestProbesAreGoldenRatioSpaced(t *testing.T) {
	spec, _ := findWorkload("flood_udp")
	pl, err := buildPools(spec.wide)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(spec, pl, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	var phases []float64
	next := int32(0)
	for s, k := range p.slotProbe {
		if k < 0 {
			continue
		}
		if k != next {
			t.Fatalf("probe %d in slot %d, want probe %d next", k, s, next)
		}
		next++
		at := time.Duration(s) * slotEvery
		phases = append(phases, float64(at%tickEvery)/float64(tickEvery))
	}
	if len(phases) < 100 {
		t.Fatalf("%d probes in 20 s, want over 100 so p90 has ten samples beyond it", len(phases))
	}
	// Tick phases must fill [0,1) evenly: every tenth holds its share.
	var bins [10]int
	for _, ph := range phases {
		bins[int(ph*10)]++
	}
	for i, n := range bins {
		if share := float64(n) / float64(len(phases)); share < 0.07 || share > 0.13 {
			t.Errorf("tick phase decile %d holds %.3f of the probes", i, share)
		}
	}
	seen := map[string]bool{}
	for _, root := range p.probeRoots {
		if seen[root] {
			t.Errorf("probe device %s used twice", root)
		}
		seen[root] = true
	}
}
