package main

// The traced run: the bytes an end-to-end run sent, replayed in process
// through each layer's public functions, grouped into the same tick
// windows, with a span around every call. Nothing inside the program is
// edited; the spans are taken here, around the calls.
//
// Three copies of the pipeline take the same decoded batches: an engine
// wired like cmd/skynetd, a bare engine, and the three modules called
// one by one. Their differences are the layer numbers: wired minus bare
// is what the observers cost, bare minus the modules is the engine's
// own share.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/evaluator"
	"skynet/internal/fanout"
	"skynet/internal/flight"
	"skynet/internal/flood"
	"skynet/internal/incident"
	"skynet/internal/ingest"
	"skynet/internal/locator"
	"skynet/internal/preprocess"
	"skynet/internal/prof"
	"skynet/internal/provenance"
	"skynet/internal/slo"
	"skynet/internal/span"
	"skynet/internal/status"
	"skynet/internal/telemetry"
	"skynet/internal/topology"
	"skynet/internal/tsdb"
)

const (
	// ingestBatchRows is the batch size the ingest dispatcher flushes at.
	ingestBatchRows = 512
	// sampleAlerts bounds the decode and ingest-capacity passes, which
	// need a steady rate, not the whole stream.
	sampleAlerts = 400_000
	// overheadWindows is how many tick windows the spans-off replay
	// covers for trace.overhead_share.
	overheadWindows = 24
)

// window is one tick's worth of the sent stream.
type window struct {
	slotLo, slotHi int // slots [slotLo, slotHi) were due inside it
	fire           time.Time
}

// windows cuts the send log into tick windows from t0, plus two empty
// ones: the ticks the daemon ran over the tail before the final state
// was read.
func (l *sendLog) windows() []window {
	var out []window
	s := 0
	for w := 1; s < len(l.slotDue) || len(out) == 0; w++ {
		end := time.Duration(w) * tickEvery
		lo := s
		for s < len(l.slotDue) && l.slotDue[s] < end {
			s++
		}
		out = append(out, window{slotLo: lo, slotHi: s, fire: l.t0.Add(end)})
	}
	last := out[len(out)-1].fire
	for i := 1; i <= 2; i++ {
		out = append(out, window{slotLo: s, slotHi: s, fire: last.Add(time.Duration(i) * tickEvery)})
	}
	return out
}

// renderWindow renders the window's slots exactly as they were sent.
func (r *e2eRun) renderWindow(w window, udp bool, buf []byte, ends []int) ([]byte, []int) {
	for s := w.slotLo; s < w.slotHi; s++ {
		buf, ends = r.plan.renderSlot(s, r.log.t0.Add(r.log.slotDue[s]), int(r.log.slotProbe[s]), udp, buf, ends)
	}
	return buf, ends
}

// decoder turns a window's bytes into ingest-sized batches the way the
// ingest readers do: JSON lines through alert.Decoder and Validate, pipe
// datagrams through Batch.AppendWireScratch and ValidateRow.
type decoder struct {
	sc      alert.WireScratch
	rows    []alert.Alert
	batches []*alert.Batch
}

func (d *decoder) batch(i int) *alert.Batch {
	for len(d.batches) <= i {
		d.batches = append(d.batches, new(alert.Batch))
	}
	d.batches[i].Reset()
	return d.batches[i]
}

func (d *decoder) decode(buf []byte, ends []int, udp bool) ([]*alert.Batch, error) {
	n := 0
	if udp {
		b := d.batch(0)
		lo := 0
		for _, hi := range ends {
			if b.Len() == ingestBatchRows {
				n++
				b = d.batch(n)
			}
			if err := b.AppendWireScratch(buf[lo:hi], &d.sc); err != nil {
				return nil, err
			}
			if i := b.Len() - 1; b.Source[i] != alert.SourceSyslog {
				if err := b.ValidateRow(i); err != nil {
					return nil, err
				}
			}
			lo = hi
		}
		return d.batches[:n+1], nil
	}
	d.rows = d.rows[:0]
	dec := alert.NewDecoder(bytes.NewReader(buf))
	for {
		var a alert.Alert
		err := dec.Decode(&a)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := a.Validate(); err != nil && a.Source != alert.SourceSyslog {
			return nil, err
		}
		d.rows = append(d.rows, a)
	}
	b := d.batch(0)
	for i := range d.rows {
		if b.Len() == ingestBatchRows {
			n++
			b = d.batch(n)
		}
		b.Append(&d.rows[i])
	}
	return d.batches[:n+1], nil
}

// wiredEngine assembles an engine with every observer cmd/skynetd
// attaches on the tick path, in the same order and with its defaults.
func wiredEngine(topo *topology.Topology) (*core.Engine, *fanout.Hub, error) {
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		return nil, nil, err
	}
	engine := core.NewEngine(core.DefaultConfig(), topo, classifier, nil, nil)
	reg := telemetry.New()
	journal := telemetry.NewJournal(0)
	engine.EnableTelemetry(reg, journal)
	journal.RegisterMetrics(reg)
	engine.EnableTracing(span.NewTracer(0))
	db := tsdb.New(tsdb.Config{})
	db.RegisterMetrics(reg)
	engine.EnableHistory(tsdb.NewSampler(db, reg))
	sloEng := slo.New(db, slo.DefaultRules(flight.DefaultSLOTickP99))
	sloEng.RegisterMetrics(reg)
	engine.EnableSLO(sloEng, true)
	engine.EnableProfiling(prof.NewLabeler(engine.MaxShards()))
	engine.EnableRuntimeMetrics(prof.NewRuntime(reg))
	hub := fanout.NewHub(fanout.Config{Ring: 1024, WallStamp: true})
	hub.RegisterMetrics(reg)
	engine.EnableFanout(hub)
	journal.SetNotify(func(ev telemetry.Event) { hub.Publish(status.EventTypeIncident, ev) })
	prov := provenance.New(provenance.Config{SampleEvery: provenance.DefaultSampleEvery})
	engine.EnableProvenance(prov)
	prov.RegisterMetrics(reg)
	floodRec := flood.New(flood.Config{})
	engine.EnableFlood(floodRec)
	floodRec.RegisterMetrics(reg)
	floodRec.SetHistory(flood.HistoryFromDB(db, tsdb.MetricTickDuration,
		"skynet_raw_alerts_total", "skynet_active_incidents", "skynet_preprocess_pending_depth"))
	floodRec.SetNotify(func(ev flood.Event) { hub.Publish(status.EventTypeFlood, ev) })
	sloEng.SetNotify(func(ev slo.Event) { hub.Publish(status.EventTypeSLO, ev) })
	return engine, hub, nil
}

// chain is the three modules called one by one, the way Engine.Tick
// strings them together.
type chain struct {
	pre    *preprocess.Preprocessor
	loc    *locator.Locator
	eval   *evaluator.Evaluator
	scored map[int]scoredAt
	active []*incident.Incident
}

// scoredAt remembers what an incident's last scoring saw, so the chain
// re-scores exactly the incidents the engine would.
type scoredAt struct {
	rev uint64
	now time.Time
}

func newChain(topo *topology.Topology) (*chain, error) {
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	return &chain{
		pre:    preprocess.New(cfg.Preprocess, topo, classifier),
		loc:    locator.New(cfg.Locator, topo),
		eval:   evaluator.New(cfg.Evaluator, topo),
		scored: map[int]scoredAt{},
	}, nil
}

func (c *chain) tick(tr *tracer, parent, w int, now time.Time) {
	id := tr.begin("preprocess.tick", parent, w)
	structured := c.pre.Tick(now)
	tr.end(id, len(structured))
	id = tr.begin("locator.add", parent, w)
	c.loc.AddBatch(structured)
	tr.end(id, len(structured))
	id = tr.begin("locator.check", parent, w)
	opened := c.loc.Check(now)
	tr.end(id, len(opened))
	c.active = c.loc.ActiveAppend(c.active[:0])
	id = tr.begin("evaluator.score", parent, w)
	n := 0
	for _, in := range c.active {
		if st, ok := c.scored[in.ID]; ok && st.rev == in.Rev() && !st.now.Before(in.UpdateTime) {
			continue
		}
		c.eval.Score(in, now)
		c.scored[in.ID] = scoredAt{rev: in.Rev(), now: now}
		n++
	}
	tr.end(id, n)
}

// replayResult is what one in-process replay leaves behind.
type replayResult struct {
	tr         *tracer
	windowNs   []float64 // wall time of each window's timed part
	alerts     int
	roots      map[string]int // the wired engine's active roots at the end
	chainRoots map[string]int
	pre        preprocess.Stats
	aggregates int
	nodes      int
	active     int
	frameBytes []float64
	deltaRows  int
}

func activeRoots(active []*incident.Incident) map[string]int {
	out := map[string]int{}
	for _, in := range active {
		out[in.Root.String()]++
	}
	return out
}

// replay feeds the run's bytes, window by window, to the three
// pipelines. maxWindows > 0 stops early.
func (r *e2eRun) replay(topo *topology.Topology, spansOff bool, maxWindows int) (*replayResult, error) {
	wired, hub, err := wiredEngine(topo)
	if err != nil {
		return nil, err
	}
	defer hub.Close()
	sub, err := hub.Subscribe(fanout.SubscribeOptions{Cursor: -1})
	if err != nil {
		return nil, err
	}
	defer sub.Close()
	// A classifier of its own for each pipeline: it memoizes lines, and a
	// shared one would be warm for whichever pipeline ran second.
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		return nil, err
	}
	bare := core.NewEngine(core.DefaultConfig(), topo, classifier, nil, nil)
	ch, err := newChain(topo)
	if err != nil {
		return nil, err
	}

	udp := r.spec.udp
	decodeName := "alert.json_decode"
	if udp {
		decodeName = "alert.wire_decode"
	}
	res := &replayResult{tr: &tracer{off: spansOff, t0: time.Now()}}
	tr := res.tr
	var dec decoder
	var buf []byte
	var ends []int
	for w, win := range r.log.windows() {
		if maxWindows > 0 && w == maxWindows {
			break
		}
		buf, ends = r.renderWindow(win, udp, buf[:0], ends[:0])
		start := time.Now()
		root := tr.begin("tick_window", -1, w)

		id := tr.begin(decodeName, root, w)
		batches, err := dec.decode(buf, ends, udp)
		if err != nil {
			return nil, fmt.Errorf("replay window %d: %w", w, err)
		}
		tr.end(id, len(ends))
		res.alerts += len(ends)
		for _, b := range batches {
			id = tr.begin("core.ingest_batch", root, w)
			wired.IngestBatch(b)
			tr.end(id, b.Len())
			id = tr.begin("core.ingest_batch_bare", root, w)
			bare.IngestBatch(b)
			tr.end(id, b.Len())
			id = tr.begin("preprocess.add", root, w)
			ch.pre.AddBatch(b)
			tr.end(id, b.Len())
		}

		id = tr.begin("core.tick_wired", root, w)
		wired.Tick(win.fire)
		tr.end(id, 1)
		id = tr.begin("core.tick_bare", root, w)
		bare.Tick(win.fire)
		tr.end(id, 1)
		id = tr.begin("chain.tick", root, w)
		ch.tick(tr, id, w, win.fire)
		tr.end(id, 1)

		id = tr.begin("fanout.poll", root, w)
		frames, _, err := sub.Poll()
		tr.end(id, len(frames))
		if err != nil {
			return nil, fmt.Errorf("replay window %d: poll: %w", w, err)
		}
		for _, f := range frames {
			if f.Kind() != fanout.KindDelta && f.Kind() != fanout.KindSnapshot {
				f.Bytes()
				continue
			}
			id = tr.begin("fanout.encode", root, w)
			n := len(f.Bytes())
			tr.end(id, n)
			if f.Kind() == fanout.KindDelta {
				res.frameBytes = append(res.frameBytes, float64(n))
			}
		}
		sub.ReleaseAll(frames)
		tr.end(root, len(ends))
		res.windowNs = append(res.windowNs, float64(time.Since(start)))
	}
	res.roots = activeRoots(wired.Active())
	res.chainRoots = activeRoots(ch.loc.Active())
	res.pre = ch.pre.Stats()
	for i := 0; i < ch.pre.Workers(); i++ {
		res.aggregates += ch.pre.ShardAggregates(i)
	}
	res.nodes = ch.loc.NodeCount()
	res.active = ch.loc.ActiveCount()
	return res, nil
}

// decodeCost times one decoder over the head of the stream: ns and heap
// allocations per alert.
func (r *e2eRun) decodeCost(udp bool) (nsPerAlert, allocsPerAlert float64, err error) {
	var dec decoder
	var buf []byte
	var ends []int
	var ns time.Duration
	var mallocs uint64
	alerts := 0
	var before, after runtime.MemStats
	for _, win := range r.log.windows() {
		if alerts >= sampleAlerts {
			break
		}
		buf, ends = r.renderWindow(win, udp, buf[:0], ends[:0])
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := dec.decode(buf, ends, udp); err != nil {
			return 0, 0, err
		}
		ns += time.Since(start)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		alerts += len(ends)
	}
	if alerts == 0 {
		return 0, 0, errors.New("decode cost: empty stream")
	}
	return float64(ns) / float64(alerts), float64(mallocs) / float64(alerts), nil
}

// ingestCost is what an in-process ingest server did with the head of
// the stream, written to it over loopback as fast as the socket takes it.
type ingestCost struct {
	rowsPerS     float64
	rowsPerBatch float64
	highWater    int
	shedShare    float64
}

func (r *e2eRun) ingestCost(udp bool) (ingestCost, error) {
	var rows, calls atomic.Int64
	cfg := ingest.Config{MaxConns: 256, ReadTimeout: 5 * time.Minute, QueueDepth: 8192}
	network := "tcp"
	if udp {
		network, cfg.UDPAddr = "udp", "127.0.0.1:0"
	} else {
		cfg.TCPAddr = "127.0.0.1:0"
	}
	srv, err := ingest.ListenBatch(cfg, func(b *alert.Batch) {
		rows.Add(int64(b.Len()))
		calls.Add(1)
	})
	if err != nil {
		return ingestCost{}, err
	}
	defer srv.Close()
	addr := srv.TCPAddr()
	if udp {
		addr = srv.UDPAddr()
	}
	conn, err := net.Dial(network, addr.String())
	if err != nil {
		return ingestCost{}, err
	}
	defer conn.Close()

	var buf []byte
	var ends []int
	sent := 0
	start := time.Now()
	for _, win := range r.log.windows() {
		if sent >= sampleAlerts {
			break
		}
		// Stamps only need to parse here: nothing expires in a counter.
		buf, ends = r.renderWindow(win, udp, buf[:0], ends[:0])
		if err := writeSlot(conn, udp, buf, ends); err != nil {
			return ingestCost{}, err
		}
		sent += len(ends)
	}
	// Everything sent is either handled, shed by the queue, or (UDP)
	// dropped by the kernel; the count standing still ends the wait.
	lastMove, prev := time.Now(), int64(-1)
	for {
		st := srv.Stats()
		if n := rows.Load(); n != prev {
			prev, lastMove = n, time.Now()
		}
		if int(prev)+st.QueueFull >= sent || time.Since(lastMove) > 200*time.Millisecond {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if prev == 0 {
		return ingestCost{}, errors.New("ingest cost: nothing arrived")
	}
	st := srv.Stats()
	return ingestCost{
		rowsPerS:     float64(prev) / lastMove.Sub(start).Seconds(),
		rowsPerBatch: float64(prev) / float64(calls.Load()),
		highWater:    st.QueueHighWater,
		shedShare:    float64(st.QueueFull) / float64(sent),
	}, nil
}

// traceLayers runs the traced half for r and fills rec.Layers. It also
// checks that the daemon ended with the incident roots the layer chain
// ends with on the same bytes.
func traceLayers(r *e2eRun, rec *runRecord, root string) error {
	topo, err := topology.Generate(topology.ProductionConfig())
	if err != nil {
		return err
	}
	traced, err := r.replay(topo, false, 0)
	if err != nil {
		return err
	}
	if err := traced.tr.write(filepath.Join(root, "bench", "results", "trace_"+r.spec.name+".json")); err != nil {
		return err
	}
	plain, err := r.replay(topo, true, overheadWindows)
	if err != nil {
		return err
	}
	jsonNs, jsonAllocs, err := r.decodeCost(false)
	if err != nil {
		return err
	}
	wireNs, wireAllocs, err := r.decodeCost(true)
	if err != nil {
		return err
	}
	tcpIn, err := r.ingestCost(false)
	if err != nil {
		return err
	}
	udpIn, err := r.ingestCost(true)
	if err != nil {
		return err
	}

	rec.Layers = map[string]value{}
	set := func(name string, v float64) {
		rec.Layers[name] = value{Value: v, Unit: findMetric(perLayer, name).Unit}
	}
	tr := traced.tr
	alerts := float64(traced.alerts)
	perAlert := func(span string) float64 {
		ns, _ := tr.total(span)
		return ns / alerts
	}
	us := func(span string, q float64) float64 { return quantile(sorted(tr.durations(span)), q) / 1e3 }
	mean := func(span string) float64 {
		ns, _ := tr.total(span)
		return ns / 1e3 / float64(len(traced.windowNs))
	}

	set("alert.json_decode_ns_per_alert", jsonNs)
	set("alert.json_decode_allocs_per_alert", jsonAllocs)
	set("alert.wire_decode_ns_per_alert", wireNs)
	set("alert.wire_decode_allocs_per_alert", wireAllocs)

	set("ingest.tcp_rows_per_s", tcpIn.rowsPerS)
	set("ingest.udp_rows_per_s", udpIn.rowsPerS)
	used, decodeNs := tcpIn, jsonNs
	if r.spec.udp {
		used, decodeNs = udpIn, wireNs
	}
	set("ingest.rows_per_batch", used.rowsPerBatch)
	set("ingest.queue_high_water", float64(used.highWater))
	set("ingest.shed_share", used.shedShare)
	ingestSelfNs := 1e9/used.rowsPerS - decodeNs
	set("ingest.self_ns_per_alert", ingestSelfNs)

	set("core.ingest_batch_ns_per_alert", perAlert("core.ingest_batch"))
	set("preprocess.add_ns_per_alert", perAlert("preprocess.add"))
	set("preprocess.tick_us_p50", us("preprocess.tick", 0.5))
	set("preprocess.tick_us_p75", us("preprocess.tick", 0.75))
	set("preprocess.out_per_in", float64(traced.pre.Out)/float64(max(traced.pre.In, 1)))
	set("preprocess.aggregates_live", float64(traced.aggregates))
	addNs, structured := tr.total("locator.add")
	set("locator.add_ns_per_structured", addNs/float64(max(structured, 1)))
	set("locator.check_us_p50", us("locator.check", 0.5))
	set("locator.check_us_p75", us("locator.check", 0.75))
	set("locator.nodes_live", float64(traced.nodes))
	set("locator.incidents_active", float64(traced.active))
	scoreNs, scoredN := tr.total("evaluator.score")
	set("evaluator.score_us_per_incident", scoreNs/1e3/float64(max(scoredN, 1)))

	set("core.tick_bare_us_p50", us("core.tick_bare", 0.5))
	set("core.tick_bare_us_p75", us("core.tick_bare", 0.75))
	set("core.tick_wired_us_p50", us("core.tick_wired", 0.5))
	set("core.tick_wired_us_p75", us("core.tick_wired", 0.75))
	set("core.tick_wired_ns_per_alert", perAlert("core.tick_wired"))
	set("core.observer_share", 1-mean("core.tick_bare")/mean("core.tick_wired"))
	set("core.self_us_per_tick", mean("core.tick_bare")-
		(mean("preprocess.tick")+mean("locator.add")+mean("locator.check")+mean("evaluator.score")))

	set("fanout.encode_us_p50", us("fanout.encode", 0.5))
	set("fanout.poll_us_p50", us("fanout.poll", 0.5))
	set("fanout.ns_per_alert", perAlert("fanout.poll")+perAlert("fanout.encode"))
	frameBytes := sorted(traced.frameBytes)
	set("fanout.frame_bytes_p50", quantile(frameBytes, 0.5))
	set("fanout.frame_bytes_max", quantile(frameBytes, 1))
	rows := 0
	for _, f := range r.frames {
		rows += f.rows
	}
	set("fanout.rows_per_delta", float64(rows)/float64(max(len(r.frames), 1)))

	firePub, pubRead := sorted(r.firePubMs), sorted(r.pubReadMs)
	set("core.fire_to_pub_ms_p50", quantile(firePub, 0.5))
	set("core.fire_to_pub_ms_p75", quantile(firePub, 0.75))
	set("status.pub_to_client_ms_p50", quantile(pubRead, 0.5))
	set("status.pub_to_client_ms_p75", quantile(pubRead, 0.75))

	// The parts of the daemon's per-alert CPU the replay accounts for:
	// decode, the ingest server's own work, IngestBatch, and the wired
	// tick and the frame encode spread over the alerts they served.
	layersUs := (decodeNs + ingestSelfNs + perAlert("core.ingest_batch") +
		perAlert("core.tick_wired") + perAlert("fanout.poll") + perAlert("fanout.encode")) / 1e3
	set("gap.cpu_us_per_alert", rec.Metrics["cpu_us_per_alert"].Value-layersUs)
	set("gap.tick_us", quantile(firePub, 0.5)*1e3-us("core.tick_wired", 0.5))

	var tracedNs, plainNs float64
	for w := range plain.windowNs {
		tracedNs += traced.windowNs[w]
		plainNs += plain.windowNs[w]
	}
	set("trace.overhead_share", tracedNs/plainNs-1)

	for _, c := range []struct {
		name string
		got  map[string]int
	}{{"daemon_equals_wired_replay", traced.roots}, {"daemon_equals_layer_chain", traced.chainRoots}} {
		var diff []string
		for root, n := range r.finalRoots {
			if c.got[root] != n && !isMetaRoot(root) {
				diff = append(diff, fmt.Sprintf("daemon has %s x%d, replay x%d", root, n, c.got[root]))
			}
		}
		for root, n := range c.got {
			// The replay gets every byte sent, shed ones included.
			if r.finalRoots[root] == 0 && !isMetaRoot(root) && !r.probeLost(root) {
				diff = append(diff, fmt.Sprintf("replay has %s x%d, daemon none", root, n))
			}
		}
		r.check(c.name, len(diff) == 0, "%s", head(diff))
	}
	rec.Checks, rec.Correct = r.checks, r.ok()
	return nil
}
