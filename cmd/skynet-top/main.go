// Command skynet-top is a live terminal dashboard for a running skynetd:
// it polls the daemon's status API and renders the pipeline's health the
// way top renders a host's — tick-latency and ingest-rate sparklines,
// the SLO burn table, the flood-episode banner, the Go-runtime panel,
// and the continuous profiler's per-stage CPU bars, with a tail of the
// live event stream.
//
// Usage:
//
//	skynet-top                       # live view against 127.0.0.1:7072
//	skynet-top -addr host:7072       # remote daemon
//	skynet-top -once                 # render one snapshot and exit (CI)
//
// Data sources: /api/query (sparkline series), /api/slo, /api/floods,
// /api/profile, /api/health, /api/fanout (serving-layer stats), and the
// /api/events SSE stream (live mode, resumed with Last-Event-ID across
// reconnects). Endpoints that are disabled on the daemon render as
// "(unavailable)" panels rather than failing the whole dashboard.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"skynet/internal/flood"
	"skynet/internal/prof"
	"skynet/internal/slo"
	"skynet/internal/tsdb"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:7072",
			"skynetd HTTP status address (host:port or full http:// URL)")
		once = flag.Bool("once", false,
			"render one snapshot to stdout and exit — the CI smoke mode")
		interval = flag.Duration("interval", 2*time.Second, "refresh cadence in live mode")
		width    = flag.Int("width", 48, "sparkline and bar width in cells")
		span     = flag.Uint64("span", 120, "ticks of history behind the sparklines")
	)
	flag.Parse()

	c := &client{
		base: normalizeAddr(*addr),
		hc:   &http.Client{Timeout: 5 * time.Second},
	}

	if *once {
		frame, errs := render(c, nil, *width, *span)
		fmt.Print(frame)
		if errs == allPanels {
			fmt.Fprintf(os.Stderr, "skynet-top: no endpoint reachable at %s\n", c.base)
			os.Exit(1)
		}
		return
	}

	events := newEventTail(8)
	go events.follow(c)
	for {
		frame, _ := render(c, events, *width, *span)
		// Clear screen + home, then the frame — the classic top redraw.
		fmt.Print("\x1b[2J\x1b[H" + frame)
		time.Sleep(*interval)
	}
}

// normalizeAddr accepts host:port or a full URL.
func normalizeAddr(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + addr
}

// client is a tiny JSON-over-HTTP accessor for the status API.
type client struct {
	base string
	hc   *http.Client
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// /api/health deliberately serves 503 while degraded — still JSON.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Decoded API shapes — mirrors of the daemon's JSON views, declared
// locally so the console only depends on the wire contract.

type healthView struct {
	Status    string            `json:"status"`
	Degraded  []string          `json:"degraded"`
	TickP99Ns int64             `json:"tick_p99_ns"`
	SLOP99Ns  int64             `json:"slo_tick_p99_ns"`
	Ticks     int64             `json:"ticks"`
	Dumps     int64             `json:"dumps"`
	Runtime   prof.RuntimeStats `json:"runtime"`
}

type sloView struct {
	Tick   uint64           `json:"tick"`
	Firing int64            `json:"firing"`
	Rules  []slo.RuleStatus `json:"rules"`
	Events []slo.Event      `json:"events"`
}

type floodSummary struct {
	ID            uint64      `json:"id"`
	Phase         flood.Phase `json:"phase"`
	StartTick     uint64      `json:"start_tick"`
	DurationTicks uint64      `json:"duration_ticks"`
	RawTotal      int64       `json:"raw_total"`
	PeakRate      int64       `json:"peak_rate"`
	Incidents     int         `json:"incidents"`
	MaxSeverity   float64     `json:"max_severity"`
	Scenario      string      `json:"scenario"`
}

type profileView struct {
	Windows  []prof.ProfileWindow  `json:"windows"`
	Stages   []prof.StageCPUSample `json:"stages"`
	Captures int64                 `json:"captures"`
	Errors   int64                 `json:"errors"`
}

// fanoutView mirrors /api/fanout — the serving hub's accounting.
type fanoutView struct {
	Subscribers    int64             `json:"subscribers"`
	RingSize       int               `json:"ring_size"`
	HeadSeq        uint64            `json:"head_seq"`
	Published      uint64            `json:"published_total"`
	Ticks          uint64            `json:"ticks_total"`
	Resyncs        uint64            `json:"resyncs_total"`
	Coalesced      uint64            `json:"deltas_coalesced_total"`
	Evictions      uint64            `json:"evictions_total"`
	DroppedTotal   uint64            `json:"dropped_total"`
	Dropped        map[string]uint64 `json:"dropped_by_kind"`
	QueueHighWater uint64            `json:"queue_depth_high_water"`
}

// Panel-failure bitmask: render exits nonzero in -once mode only when
// every data source failed.
const allPanels = (1 << 6) - 1

// render fetches every panel's data and assembles one frame.
func render(c *client, events *eventTail, width int, span uint64) (string, int) {
	var (
		errs   int
		health healthView
		sloV   sloView
		floods []floodSummary
		profV  profileView
		fanV   fanoutView
	)
	if err := c.getJSON("/api/health", &health); err != nil {
		errs |= 1
		health.Status = "unknown"
	}
	if err := c.getJSON("/api/slo", &sloV); err != nil {
		errs |= 2
	}
	if err := c.getJSON("/api/floods", &floods); err != nil {
		errs |= 4
	}
	if err := c.getJSON("/api/profile", &profV); err != nil {
		errs |= 8
	}
	fanOK := c.getJSON("/api/fanout", &fanV) == nil
	if !fanOK {
		errs |= 32
	}

	var b strings.Builder
	fmt.Fprintf(&b, "SKYNET-TOP  %s  %s  tick %d  ticks %d  dumps %d\n",
		c.base, strings.ToUpper(health.Status), sloV.Tick, health.Ticks, health.Dumps)
	if len(health.Degraded) > 0 {
		fmt.Fprintf(&b, "  degraded: %s\n", strings.Join(health.Degraded, ", "))
	}
	b.WriteString("\n")

	renderFlood(&b, floods)
	if !renderSparklines(&b, c, sloV.Tick, width, span) {
		errs |= 16
	}
	renderSLO(&b, sloV)
	renderRuntime(&b, health)
	renderStages(&b, profV, width)
	renderFanout(&b, fanV, fanOK)
	renderEvents(&b, events)
	return b.String(), errs
}

// renderFanout prints the serving-layer panel from /api/fanout: how many
// consumers the snapshot+delta hub is carrying and how hard it is
// working to keep laggards alive (coalesced deltas, resyncs, evictions).
func renderFanout(b *strings.Builder, v fanoutView, ok bool) {
	if !ok {
		b.WriteString("FANOUT    (unavailable)\n\n")
		return
	}
	fmt.Fprintf(b, "FANOUT    %d subscribers  ring %d @ seq %d  %d frames (%d ticks)\n",
		v.Subscribers, v.RingSize, v.HeadSeq, v.Published, v.Ticks)
	fmt.Fprintf(b, "          coalesced %d  resyncs %d  evictions %d  dropped %d  queue hw %d\n\n",
		v.Coalesced, v.Resyncs, v.Evictions, v.DroppedTotal, v.QueueHighWater)
}

// renderFlood prints the FLOOD banner: the open episode if any, else the
// most recently closed one, else a quiet line.
func renderFlood(b *strings.Builder, floods []floodSummary) {
	b.WriteString("FLOOD     ")
	if len(floods) == 0 {
		b.WriteString("no episodes detected\n\n")
		return
	}
	ep := floods[len(floods)-1]
	if ep.Phase == flood.PhaseClosed {
		fmt.Fprintf(b, "quiet — last episode #%d closed (%d raw, peak %d/10s, %d incidents)\n\n",
			ep.ID, ep.RawTotal, ep.PeakRate, ep.Incidents)
		return
	}
	fmt.Fprintf(b, "*** EPISODE #%d %s *** started tick %d, %d ticks, %d raw, peak %d/10s, %d incidents, max severity %.2f\n",
		ep.ID, strings.ToUpper(ep.Phase.String()), ep.StartTick, ep.DurationTicks,
		ep.RawTotal, ep.PeakRate, ep.Incidents, ep.MaxSeverity)
	if ep.Scenario != "" {
		fmt.Fprintf(b, "          matched scenario: %s\n", ep.Scenario)
	}
	b.WriteString("\n")
}

// renderSparklines prints TICK LATENCY and INGEST RATE from /api/query.
// Reports whether at least one series was fetched.
func renderSparklines(b *strings.Builder, c *client, tick uint64, width int, span uint64) bool {
	ok := false
	from := uint64(1)
	if tick > span {
		from = tick - span + 1
	}
	lat, err := querySeries(c, "skynet_tick_duration_seconds", from, tick)
	if err == nil && len(lat) > 0 {
		ok = true
		last := lat[len(lat)-1]
		fmt.Fprintf(b, "TICK LAT  %s  last %s  max %s\n",
			tsdb.Sparkline(lat, width), fmtSeconds(last), fmtSeconds(maxOf(lat)))
	} else {
		b.WriteString("TICK LAT  (unavailable)\n")
	}
	raw, err := querySeries(c, "skynet_raw_alerts_total", from, tick)
	if rates := deltas(raw); err == nil && len(rates) > 0 {
		ok = true
		fmt.Fprintf(b, "INGEST    %s  last %.0f/tick  peak %.0f/tick\n",
			tsdb.Sparkline(rates, width), rates[len(rates)-1], maxOf(rates))
	} else {
		b.WriteString("INGEST    (unavailable)\n")
	}
	b.WriteString("\n")
	return ok
}

func querySeries(c *client, metric string, from, to uint64) ([]float64, error) {
	var res tsdb.QueryResult
	path := fmt.Sprintf("/api/query?metric=%s&from=%d&to=%d&step=1", metric, from, to)
	if err := c.getJSON(path, &res); err != nil {
		return nil, err
	}
	vals := make([]float64, 0, len(res.Points))
	for _, p := range res.Points {
		vals = append(vals, p.Value)
	}
	return vals, nil
}

// renderSLO prints the burn table.
func renderSLO(b *strings.Builder, v sloView) {
	fmt.Fprintf(b, "SLO BURN  %d firing\n", v.Firing)
	if len(v.Rules) == 0 {
		b.WriteString("          (unavailable)\n\n")
		return
	}
	fmt.Fprintf(b, "          %-22s %-10s %10s %8s %8s\n", "rule", "state", "value", "fast", "slow")
	for _, rs := range v.Rules {
		state := "ok"
		if rs.Firing {
			state = "FIRING"
		}
		fmt.Fprintf(b, "          %-22s %-10s %10.4g %8.2f %8.2f\n",
			rs.Rule.Name, state, rs.Value, rs.FastBurn, rs.SlowBurn)
	}
	b.WriteString("\n")
}

// renderRuntime prints the Go-runtime panel from /api/health.
func renderRuntime(b *strings.Builder, h healthView) {
	r := h.Runtime
	if r.Goroutines == 0 {
		b.WriteString("RUNTIME   (unavailable)\n\n")
		return
	}
	fmt.Fprintf(b, "RUNTIME   goroutines %d  heap %s  gc %d  last pause %s  tick p99 %s\n\n",
		r.Goroutines, fmtBytes(r.HeapLiveBytes), r.GCCycles,
		r.GCPauseDuration(), time.Duration(h.TickP99Ns))
}

// renderStages prints the top-stage CPU bars from /api/profile.
func renderStages(b *strings.Builder, v profileView, width int) {
	fmt.Fprintf(b, "STAGE CPU %d windows (%d failed)\n", v.Captures, v.Errors)
	if len(v.Stages) == 0 {
		if v.Captures > 0 {
			b.WriteString("          (idle — no CPU samples in the last window)\n\n")
		} else {
			b.WriteString("          (no profile window yet)\n\n")
		}
		return
	}
	stages := make([]prof.StageCPUSample, len(v.Stages))
	copy(stages, v.Stages)
	sort.SliceStable(stages, func(i, j int) bool { return stages[i].CPUNanos > stages[j].CPUNanos })
	for _, s := range stages {
		n := int(s.Fraction * float64(width))
		if n > width {
			n = width
		}
		fmt.Fprintf(b, "          %-18s %5.1f%% %s\n",
			s.Stage, s.Fraction*100, strings.Repeat("█", n))
	}
	b.WriteString("\n")
}

// renderEvents prints the SSE tail (live mode only).
func renderEvents(b *strings.Builder, events *eventTail) {
	b.WriteString("EVENTS    ")
	if events == nil {
		b.WriteString("(live mode only)\n")
		return
	}
	lines := events.recent()
	if len(lines) == 0 {
		b.WriteString("(none yet)\n")
		return
	}
	b.WriteString("\n")
	for _, l := range lines {
		fmt.Fprintf(b, "          %s\n", l)
	}
}

// eventTail follows the /api/events SSE stream, keeping the last N
// event lines for the dashboard's footer. The last SSE id seen is
// echoed back as Last-Event-ID on reconnect, so a dropped connection
// resumes mid-stream (resynced from the snapshot if it fell too far
// behind) instead of replaying the feed from scratch.
type eventTail struct {
	mu     sync.Mutex
	lines  []string
	keep   int
	lastID string
}

func newEventTail(keep int) *eventTail { return &eventTail{keep: keep} }

func (t *eventTail) recent() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.lines))
	copy(out, t.lines)
	return out
}

func (t *eventTail) push(line string) {
	t.mu.Lock()
	t.lines = append(t.lines, line)
	if len(t.lines) > t.keep {
		t.lines = t.lines[len(t.lines)-t.keep:]
	}
	t.mu.Unlock()
}

// follow reconnects forever; each SSE frame becomes one tail line
// "<event> <data>", with the data trimmed to a screen-friendly length.
func (t *eventTail) follow(c *client) {
	for {
		t.followOnce(c)
		time.Sleep(2 * time.Second)
	}
}

func (t *eventTail) followOnce(c *client) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/api/events", nil)
	if err != nil {
		return
	}
	t.mu.Lock()
	if t.lastID != "" {
		req.Header.Set("Last-Event-ID", t.lastID)
	}
	t.mu.Unlock()
	// Streaming must bypass c.hc's 5s request timeout: the SSE
	// connection is long-lived by design.
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			resp.Body.Close()
		}
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			t.mu.Lock()
			t.lastID = strings.TrimPrefix(line, "id: ")
			t.mu.Unlock()
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if len(data) > 100 {
				data = data[:100] + "…"
			}
			t.push(fmt.Sprintf("%-9s %s", event, data))
		}
	}
}

func deltas(vals []float64) []float64 {
	if len(vals) < 2 {
		return nil
	}
	out := make([]float64, 0, len(vals)-1)
	for i := 1; i < len(vals); i++ {
		d := vals[i] - vals[i-1]
		if d < 0 {
			d = 0
		}
		out = append(out, d)
	}
	return out
}

func maxOf(vals []float64) float64 {
	m := 0.0
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
