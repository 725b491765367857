// Package telemetry is SkyNet's runtime observability layer: a
// dependency-free, allocation-light metrics registry (atomic counters,
// gauges, and fixed-bucket histograms) with Prometheus text-format
// exposition, plus the incident lifecycle journal.
//
// The paper's premise is volume visibility — operators face O(10^4)–
// O(10^5) raw alerts and need to know what the funnel is doing to them
// (§4, Fig. 5a). This package makes the reproduction itself observable:
// every pipeline stage exports counters and latency histograms that the
// status server exposes on GET /metrics.
//
// Metric mutation is lock-free (single atomic op for counters and gauges,
// one atomic add per histogram bucket), so instrumented hot paths stay
// within noise of the uninstrumented ones. Registration takes a lock and
// is expected at setup time only.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Values are float64, stored
// as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt replaces the gauge value with an integer.
func (g *Gauge) SetInt(v int) { g.Set(float64(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: bucket i counts observations ≤ upper[i], plus an implicit +Inf
// bucket, a sum, and a count.
type Histogram struct {
	upper  []float64      // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64 // len(upper)+1; last is +Inf
	sum    Gauge          // atomic float64 accumulator
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists are short (≤ ~16) and the branch
	// predictor makes this cheaper than binary search at this size.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts,
// attributing each observation to its bucket's upper bound. Good enough
// for dashboards; exact for the bucket boundaries themselves.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.upper) {
				return h.upper[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// LatencyBuckets is the default upper-bound ladder for stage latencies in
// seconds: 10µs .. 10s, roughly ×3 steps.
func LatencyBuckets() []float64 {
	return []float64{
		1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10,
	}
}

// Kind labels the exposition type of a metric.
type Kind string

// Metric kinds, matching the Prometheus TYPE comment values.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// metric is one registered entry.
type metric struct {
	name, help string
	labels     string // rendered label pairs, e.g. `episode="3"`; "" for none
	kind       Kind
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
	fn         func() float64 // gauge-func / counter-func, read at expose time
}

// key returns the registry lookup key: the family name plus the label set,
// so one family may carry many labeled series.
func (m *metric) key() string { return metricKey(m.name, m.labels) }

func metricKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. The zero value is not usable; call New.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
	rev     atomic.Uint64 // bumped on every new series registration
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// lookup returns an existing metric, verifying the kind, or registers a
// new slot.
func (r *Registry) lookup(name, help string, kind Kind) (*metric, bool) {
	return r.lookupLabeled(name, "", help, kind)
}

// lookupLabeled is lookup for one (family, label set) series.
func (r *Registry) lookupLabeled(name, labels, help string, kind Kind) (*metric, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := metricKey(name, labels)
	if m, ok := r.byName[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", key, kind, m.kind))
		}
		return m, true
	}
	m := &metric{name: name, labels: labels, help: help, kind: kind}
	r.byName[key] = m
	r.metrics = append(r.metrics, m)
	r.rev.Add(1)
	return m, false
}

// Rev returns the registration revision: it changes whenever a new series
// is registered, and never otherwise. Samplers that pre-resolve Handles
// compare it each cycle and re-resolve only when it moved — the steady
// state is one atomic load.
func (r *Registry) Rev() uint64 { return r.rev.Load() }

// Handle is a pre-resolved, lock-free reader for one exposition sample.
// Resolving handles once and reading them every tick is how the history
// sampler avoids Snapshot's per-scrape allocations.
type Handle struct {
	// Name is the series key: the family name plus the rendered label
	// set (`family{label="v"}`), or the bare family name when unlabeled.
	// Histograms expand to two handles, `family_count` and `family_sum`.
	Name string
	Kind Kind
	read func() float64
}

// Read returns the sample's current value. Safe to call concurrently
// with metric mutation; never takes the registry lock.
func (h Handle) Read() float64 { return h.read() }

// Handles resolves every registered series into lock-free readers, sorted
// by series key — the same stable order Snapshot uses. Counters and gauges
// yield one handle; histograms yield cumulative `_count` and `_sum`
// handles (bucket series are left to full exposition). Callers cache the
// result and re-resolve when Rev changes.
func (r *Registry) Handles() []Handle {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	sort.Slice(metrics, func(i, j int) bool {
		if metrics[i].name != metrics[j].name {
			return metrics[i].name < metrics[j].name
		}
		return metrics[i].labels < metrics[j].labels
	})
	out := make([]Handle, 0, len(metrics))
	for _, m := range metrics {
		m := m
		if m.kind == KindHistogram {
			if m.hist == nil {
				continue
			}
			h := m.hist
			out = append(out,
				Handle{Name: metricKey(m.name+"_count", m.labels), Kind: KindCounter,
					read: func() float64 { return float64(h.Count()) }},
				Handle{Name: metricKey(m.name+"_sum", m.labels), Kind: KindCounter,
					read: func() float64 { return h.Sum() }},
			)
			continue
		}
		out = append(out, Handle{Name: m.key(), Kind: m.kind, read: func() float64 {
			// fn is re-read on every call: GaugeFunc may replace the
			// callback after this handle was resolved.
			switch {
			case m.fn != nil:
				return m.fn()
			case m.counter != nil:
				return float64(m.counter.Value())
			case m.gauge != nil:
				return m.gauge.Value()
			}
			return 0
		}})
	}
	return out
}

// Label renders one label pair for CounterWith/GaugeWith/HistogramWith,
// escaping the value per the Prometheus text format.
func Label(key, value string) string {
	return key + `="` + escapeLabelValue(value) + `"`
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// CounterWith returns the counter series of one family carrying the given
// label set (built with Label), registering it on first use. Series of one
// family share a single HELP/TYPE header in the exposition; an exemplar-
// style label (episode="3") distinguishes the samples.
func (r *Registry) CounterWith(name, labels, help string) *Counter {
	m, existed := r.lookupLabeled(name, labels, help, KindCounter)
	if !existed {
		m.counter = &Counter{}
	}
	return m.counter
}

// GaugeWith returns the labeled gauge series of one family, registering it
// on first use.
func (r *Registry) GaugeWith(name, labels, help string) *Gauge {
	m, existed := r.lookupLabeled(name, labels, help, KindGauge)
	if !existed {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// HistogramWith returns the labeled histogram series of one family,
// registering it on first use; the label set joins le in the bucket
// samples.
func (r *Registry) HistogramWith(name, labels, help string, buckets []float64) *Histogram {
	m, existed := r.lookupLabeled(name, labels, help, KindHistogram)
	if !existed {
		up := make([]float64, len(buckets))
		copy(up, buckets)
		sort.Float64s(up)
		m.hist = &Histogram{upper: up, counts: make([]atomic.Int64, len(up)+1)}
	}
	return m.hist
}

// Counter returns the named counter, registering it on first use.
// Repeated calls with the same name return the same counter.
func (r *Registry) Counter(name, help string) *Counter {
	m, existed := r.lookup(name, help, KindCounter)
	if !existed {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m, existed := r.lookup(name, help, KindGauge)
	if !existed {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// GaugeFunc registers a gauge whose value is read from fn — the bridge
// for subsystems that already keep their own counters (one source of
// truth, no double accounting). Re-registering a name replaces its
// callback.
//
// fn runs at exposition time and, in the daemon, once per tick on the
// tick goroutine under the engine lock (the history sampler reads every
// metric there, with the store's lock held too). It must therefore do no
// I/O, never block, and allocate nothing: read an atomic, or take a
// mutex that is only ever held for a few loads and stores. Whatever it
// costs, every tick pays (cmd/skynetd's TestMetricCallbacksAllocateNothing
// holds the daemon's whole registry to the allocation half of this).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m, _ := r.lookup(name, help, KindGauge)
	m.fn = fn
}

// CounterFunc registers a counter whose value is read from fn. fn must
// be monotonic, and GaugeFunc's contract binds it: no I/O, no blocking,
// no allocation.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	m, _ := r.lookup(name, help, KindCounter)
	m.fn = fn
}

// CounterFuncWith registers one labeled series of a counter family whose
// value is read from fn — the bridge for subsystems keeping
// per-dimension counters of their own (e.g. per-kind fan-out drops). fn
// must be monotonic and meet GaugeFunc's contract.
func (r *Registry) CounterFuncWith(name, labels, help string, fn func() float64) {
	m, _ := r.lookupLabeled(name, labels, help, KindCounter)
	m.fn = fn
}

// Histogram returns the named histogram, registering it on first use with
// the given upper bounds (sorted ascending; +Inf is implicit). Buckets
// are fixed at first registration; later calls ignore the argument.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	m, existed := r.lookup(name, help, KindHistogram)
	if !existed {
		up := make([]float64, len(buckets))
		copy(up, buckets)
		sort.Float64s(up)
		m.hist = &Histogram{upper: up, counts: make([]atomic.Int64, len(up)+1)}
	}
	return m.hist
}

// HistogramView is a point-in-time copy of one histogram.
type HistogramView struct {
	Upper  []float64 // bucket upper bounds (+Inf implicit)
	Counts []int64   // per-bucket (non-cumulative) counts; len(Upper)+1
	Sum    float64
	Count  int64
}

// Mean returns the view's average observed value (0 when empty).
func (h *HistogramView) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile from the view's bucket counts, as
// Histogram.Quantile does.
func (h *HistogramView) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if i < len(h.Upper) {
				return h.Upper[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// MetricSnapshot is a point-in-time copy of one metric.
type MetricSnapshot struct {
	Name   string
	Labels string // rendered label pairs ("" for unlabeled series)
	Help   string
	Kind   Kind
	Value  float64        // counters, gauges
	Hist   *HistogramView // histograms only
}

// Snapshot copies every metric, sorted by name then label set — a stable
// order no matter when each subsystem registered, so two scrapes of a
// quiescent registry are textually identical and diffs between scrapes are
// meaningful. Labeled series of one family are adjacent.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	sort.Slice(metrics, func(i, j int) bool {
		if metrics[i].name != metrics[j].name {
			return metrics[i].name < metrics[j].name
		}
		return metrics[i].labels < metrics[j].labels
	})
	out := make([]MetricSnapshot, 0, len(metrics))
	for _, m := range metrics {
		s := MetricSnapshot{Name: m.name, Labels: m.labels, Help: m.help, Kind: m.kind}
		switch {
		case m.fn != nil:
			s.Value = m.fn()
		case m.counter != nil:
			s.Value = float64(m.counter.Value())
		case m.gauge != nil:
			s.Value = m.gauge.Value()
		case m.hist != nil:
			hv := &HistogramView{
				Upper:  m.hist.upper,
				Counts: make([]int64, len(m.hist.counts)),
				Sum:    m.hist.Sum(),
				Count:  m.hist.Count(),
			}
			for i := range m.hist.counts {
				hv.Counts[i] = m.hist.counts[i].Load()
			}
			s.Hist = hv
		}
		out = append(out, s)
	}
	return out
}

// Expose writes the registry in Prometheus text exposition format
// (version 0.0.4): HELP/TYPE comments, cumulative histogram buckets with
// le labels, _sum and _count series.
func (r *Registry) Expose(w io.Writer) error {
	var b strings.Builder
	lastFamily := ""
	for _, s := range r.Snapshot() {
		// One HELP/TYPE header per family; labeled series follow as
		// additional samples of the same family.
		if s.Name != lastFamily {
			lastFamily = s.Name
			// Every family gets a HELP line, even with an empty docstring
			// (the text format allows it) — scrapers that key families off
			// HELP see a uniform stream.
			b.WriteString("# HELP ")
			b.WriteString(s.Name)
			if s.Help != "" {
				b.WriteByte(' ')
				b.WriteString(escapeHelp(s.Help))
			}
			b.WriteByte('\n')
			b.WriteString("# TYPE ")
			b.WriteString(s.Name)
			b.WriteByte(' ')
			b.WriteString(string(s.Kind))
			b.WriteByte('\n')
		}
		if s.Hist == nil {
			b.WriteString(s.Name)
			if s.Labels != "" {
				b.WriteByte('{')
				b.WriteString(s.Labels)
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.Value))
			b.WriteByte('\n')
			continue
		}
		lePrefix := "" // joins the label set with le in bucket samples
		suffix := ""
		if s.Labels != "" {
			lePrefix = s.Labels + ","
			suffix = "{" + s.Labels + "}"
		}
		var cum int64
		for i, ub := range s.Hist.Upper {
			cum += s.Hist.Counts[i]
			fmt.Fprintf(&b, "%s_bucket{%sle=%q} %d\n", s.Name, lePrefix, formatFloat(ub), cum)
		}
		cum += s.Hist.Counts[len(s.Hist.Counts)-1]
		fmt.Fprintf(&b, "%s_bucket{%sle=\"+Inf\"} %d\n", s.Name, lePrefix, cum)
		fmt.Fprintf(&b, "%s_sum%s %s\n", s.Name, suffix, formatFloat(s.Hist.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", s.Name, suffix, s.Hist.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
