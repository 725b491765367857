package main

// The send plan: which pre-encoded payload goes out in which 2 ms slot.
// Everything random comes from --seed (pool order, probe-device order,
// which alerts are stamped late and by how much), so the same seed and
// the same T0 give the same bytes, and skynetd only ever sees bytes.

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"
)

const (
	slotEvery = 2 * time.Millisecond
	// tickEvery is the daemon's tick: the paper's 10 s tick compressed
	// 40x, so 10-40 K alerts/s put the paper's 10^4-10^5-alert flood
	// into every tick.
	tickEvery = 250 * time.Millisecond
	// probeEvery is tickEvery divided by the golden ratio: successive
	// probes land on tick phases that fill [0, tick) as evenly as any
	// sequence can, so a run's detect percentiles do not depend on where
	// the daemon's ticker happened to start.
	probeEvery = 154508497 * time.Nanosecond
	// lateShare of flood alerts are stamped up to lateMax behind their
	// send time, the paper's SNMP lag.
	lateShare = 0.10
	lateMax   = 120 * time.Second
	// closedLoopSlot is the alert count of one closed-loop write.
	closedLoopSlot = 256
	// closedLoopCycle is how many distinct closed-loop slots are planned
	// before the sender wraps around.
	closedLoopCycle = 4096

	jsonStampLen = len("2006-01-02T15:04:05.000000000Z")
	wireStampLen = 19
)

// payload is one alert encoded once in both wire formats, with the
// offsets of its fixed-width time and end fields.
type payload struct {
	json              []byte
	jsonTime, jsonEnd int
	wire              []byte
	wireTime, wireEnd int
}

// probeDevice is a device that a probe makes into an incident of its own.
type probeDevice struct {
	root   string
	alerts []payload
}

// pools is what buildPools generates for one workload.
type pools struct {
	alerts []payload
	// roots are the incident roots the background load must end with:
	// the cut city for the flood pool, every device for the wide pool.
	roots  []string
	probes []probeDevice
}

type workloadSpec struct {
	name string
	why  string
	udp  bool
	// rate is the open-loop send rate in alerts/s; 0 means closed loop.
	rate int
	wide bool
}

var workloads = []workloadSpec{
	{name: "flood_tcp", rate: 40000,
		why: "fibre-cut flood at 40K alerts/s over one TCP connection: work is JSON decode, ingest queue, IngestBatch and preprocess absorb, almost none in locator, evaluator or fan-out"},
	{name: "flood_udp", rate: 10000, udp: true,
		why: "the same flood as pipe-format datagrams, at the rate the kernel's default socket buffer rides out a stalled reader: columnar wire decode and whole-batch hand-off, the transport flood_tcp bypasses"},
	{name: "wide_udp", rate: 10000, udp: true, wide: true,
		why: "about 970 concurrent device-level incidents at 10K alerts/s: decode is a small share, and preprocess sweep, locator, evaluator, delta build, encode and SSE write do the rest"},
	{name: "blast_tcp",
		why: "closed loop, the flood pool written as fast as one TCP connection accepts: ingest capacity, whether the queue sheds while a tick holds the engine lock, and ticks at saturation"},
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// item is one background alert in send order.
type item struct {
	payload int32
	lateMs  int32
}

// plan is a workload's complete send schedule.
type plan struct {
	spec     *workloadSpec
	payloads []payload // the pool, then two per probe device in probe order
	pool     int       // len of the pool part of payloads
	items    []item
	// slotEnd[s] ends slot s's run of items. An open-loop plan has one
	// entry per slot of the run; a closed-loop plan is cyclic.
	slotEnd []int32
	// probeRoots[k] is the device probe k makes an incident of.
	probeRoots []string
	// slotProbe[s] is the probe due in open-loop slot s, or -1.
	slotProbe []int32
	// roots are the background load's expected incident roots.
	roots []string
}

// wideArriveShare is the part of a wide run over which new devices keep
// arriving; after it every device is only re-observed.
const wideArriveShare = 0.75

func newPlan(spec *workloadSpec, pl *pools, seed int64, seconds int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{spec: spec, pool: len(pl.alerts), roots: pl.roots}
	p.payloads = append(p.payloads, pl.alerts...)
	maxProbes := int(time.Duration(seconds)*time.Second/probeEvery) + 1
	if maxProbes > len(pl.probes) {
		return nil, fmt.Errorf("%s: %d s needs %d probe devices, the probe region has %d",
			spec.name, seconds, maxProbes, len(pl.probes))
	}
	for _, k := range rng.Perm(len(pl.probes))[:maxProbes] {
		p.probeRoots = append(p.probeRoots, pl.probes[k].root)
		p.payloads = append(p.payloads, pl.probes[k].alerts...)
	}

	if spec.rate == 0 {
		p.planFlood(rng, closedLoopCycle, closedLoopSlot)
		return p, nil
	}

	slots := int(time.Duration(seconds) * time.Second / slotEvery)
	perSlot := spec.rate / int(time.Second/slotEvery)
	p.slotProbe = make([]int32, slots)
	for s := range p.slotProbe {
		p.slotProbe[s] = -1
	}
	// The first probe waits one interval so the daemon has seen load.
	for k := 1; k <= maxProbes; k++ {
		if s := int(time.Duration(k) * probeEvery / slotEvery); s < slots {
			p.slotProbe[s] = int32(k - 1)
		}
	}
	if spec.wide {
		p.planWide(rng, slots, perSlot)
	} else {
		p.planFlood(rng, slots, perSlot)
	}
	return p, nil
}

// planFlood cycles the seed-shuffled pool, perSlot alerts to a slot, a
// tenth of them stamped late.
func (p *plan) planFlood(rng *rand.Rand, slots, perSlot int) {
	order := rng.Perm(p.pool)
	for s := 0; s < slots; s++ {
		for i := 0; i < perSlot; i++ {
			p.items = append(p.items, item{payload: int32(order[len(p.items)%p.pool]), lateMs: lateMs(rng)})
		}
		p.slotEnd = append(p.slotEnd, int32(len(p.items)))
	}
}

func lateMs(rng *rand.Rand) int32 {
	if rng.Float64() >= lateShare {
		return 0
	}
	return int32(rng.Int63n(int64(lateMax / time.Millisecond)))
}

// planWide brings the pool's devices in evenly over the first part of
// the run, all of a device's streams in its arrival slot, and spends the
// rest of every slot re-observing the devices that have arrived, round
// robin, so every incident keeps being updated.
func (p *plan) planWide(rng *rand.Rand, slots, perSlot int) {
	devices := p.pool / wideTypesPerDevice
	order := rng.Perm(devices)
	arriveSlots := int(float64(slots) * wideArriveShare)
	arrived, cursor := 0, 0
	for s := 0; s < slots; s++ {
		n := 0
		for arrived < devices && arrived*arriveSlots <= s*devices {
			for t := 0; t < wideTypesPerDevice; t++ {
				p.items = append(p.items, item{payload: int32(order[arrived]*wideTypesPerDevice + t)})
			}
			arrived++
			n += wideTypesPerDevice
		}
		for ; n < perSlot; n++ {
			dev := order[cursor/wideTypesPerDevice%arrived]
			p.items = append(p.items, item{payload: int32(dev*wideTypesPerDevice + cursor%wideTypesPerDevice)})
			cursor++
			if cursor == arrived*wideTypesPerDevice {
				cursor = 0
			}
		}
		p.slotEnd = append(p.slotEnd, int32(len(p.items)))
	}
}

// slotItems returns the background items of slot s (cyclic).
func (p *plan) slotItems(s int) []item {
	s %= len(p.slotEnd)
	lo := int32(0)
	if s > 0 {
		lo = p.slotEnd[s-1]
	}
	return p.items[lo:p.slotEnd[s]]
}

// renderSlot appends slot s as it goes on the wire at due: each alert's
// time and end restamped to due minus its lateness, then probe's two
// alerts (probe < 0: none) stamped due. ends receives the end offset of
// every alert in buf, which is where UDP datagrams split. udp picks the
// pipe format over JSON lines.
func (p *plan) renderSlot(s int, due time.Time, probe int, udp bool, buf []byte, ends []int) ([]byte, []int) {
	for _, it := range p.slotItems(s) {
		buf = appendStamped(buf, &p.payloads[it.payload], udp, due.Add(-time.Duration(it.lateMs)*time.Millisecond))
		ends = append(ends, len(buf))
	}
	if probe >= 0 {
		for i := 0; i < 2; i++ {
			buf = appendStamped(buf, &p.payloads[p.pool+2*probe+i], udp, due)
			ends = append(ends, len(buf))
		}
	}
	return buf, ends
}

func appendStamped(buf []byte, pl *payload, udp bool, at time.Time) []byte {
	n := len(buf)
	if udp {
		buf = append(buf, pl.wire...)
		stampWire(buf[n+pl.wireTime:], at)
		stampWire(buf[n+pl.wireEnd:], at)
		return buf
	}
	buf = append(buf, pl.json...)
	stampJSON(buf[n+pl.jsonTime:], at)
	stampJSON(buf[n+pl.jsonEnd:], at)
	return buf
}

// stampJSON overwrites dst's first jsonStampLen bytes with t as a
// full-width RFC3339Nano UTC stamp, which encoding/json reads like any
// other.
func stampJSON(dst []byte, t time.Time) []byte {
	t.UTC().AppendFormat(dst[:0], "2006-01-02T15:04:05.000000000Z")
	return dst[:jsonStampLen]
}

// stampWire overwrites dst's first wireStampLen bytes with t as unix
// nanoseconds (19 digits from late 2001 to 2262).
func stampWire(dst []byte, t time.Time) []byte {
	strconv.AppendInt(dst[:0], t.UnixNano(), 10)
	return dst[:wireStampLen]
}
