package main

// One end-to-end run: a real skynetd subprocess, one sender goroutine on
// its TCP or UDP ingest socket, one client goroutine on /api/events.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// setupRepeats is how often a run sets up (build, pools, plan, boot);
	// setup_s is the median, the last boot is the one measured against.
	setupRepeats = 3
	// missAfter is how long after its due time an unseen probe counts as
	// missed: 8 ticks.
	missAfter = 8 * tickEvery
	// maxLateP99 is the generator lateness beyond which an open-loop run
	// is invalid.
	maxLateP99 = 5 * time.Millisecond
	// timedConnections is what the timed window opens: one ingest
	// socket and one feed subscription, each served by one goroutine.
	timedConnections = 2
)

// sendLog is what the sender actually did; the traced replay feeds the
// layers the same slots at the same stamps.
type sendLog struct {
	t0 time.Time
	// slotDue[s] is slot s's due time (open loop) or write time (closed
	// loop), as an offset from t0.
	slotDue []time.Duration
	// slotProbe[s] is the probe sent with slot s, or -1.
	slotProbe []int32
	// probeDue[k] is when probe k was due on the wire.
	probeDue []time.Time
	late     []float64 // ms behind due, one per open-loop slot
	alerts   int       // alerts written, probes' included
	start    time.Time // first write began
	end      time.Time // last write returned
}

// check is one output check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// e2eRun is everything one end-to-end run measured.
type e2eRun struct {
	spec    *workloadSpec
	seed    int64
	seconds int
	plan    *plan
	log     sendLog
	frames  []frameRecord // delta frames fired inside the send window

	setupS     float64
	detectMs   []float64 // one per probe seen in time
	feedLagMs  []float64 // one per tick
	firePubMs  []float64
	pubReadMs  []float64
	missed     int
	probeSent  map[string]bool // roots of the probes that went out
	stats      daemonStats
	cpuSeconds float64
	rssPeakMB  float64
	finalRoots map[string]int // active incidents per root, fresh subscription after drain
	checks     []check
}

func (r *e2eRun) probesSent() int { return len(r.log.probeDue) }

func (r *e2eRun) shed() int { return r.log.alerts - r.stats.RawIngested }

func (r *e2eRun) ok() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *e2eRun) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
}

// setUp builds the daemon, generates the pools and the plan, and boots,
// setupRepeats times over; every boot but the last is stopped again.
func setUp(ctx context.Context, root string, spec *workloadSpec, seed int64, seconds int) (*daemon, *plan, float64, error) {
	var took []float64
	for i := 0; ; i++ {
		start := time.Now()
		bin, err := buildDaemon(ctx, root)
		if err != nil {
			return nil, nil, 0, err
		}
		pl, err := buildPools(spec.wide)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("build pools: %w", err)
		}
		p, err := newPlan(spec, pl, seed, seconds)
		if err != nil {
			return nil, nil, 0, err
		}
		d, err := bootDaemon(ctx, bin, root)
		if err != nil {
			return nil, nil, 0, err
		}
		took = append(took, time.Since(start).Seconds())
		if i == setupRepeats-1 {
			return d, p, median(took), nil
		}
		d.stop()
	}
}

// runE2E performs one end-to-end run and its output checks.
func runE2E(ctx context.Context, root string, spec *workloadSpec, seed int64, seconds int) (*e2eRun, error) {
	if timedConnections > runtime.NumCPU() {
		return nil, fmt.Errorf("the timed window uses %d connections, each with its own goroutine, and this machine has %d CPU: the generator would compete with itself",
			timedConnections, runtime.NumCPU())
	}
	d, p, setupS, err := setUp(ctx, root, spec, seed, seconds)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	r := &e2eRun{spec: spec, seed: seed, seconds: seconds, plan: p, setupS: setupS}

	client, err := startFeedClient(ctx, d.httpAddr)
	if err != nil {
		return nil, err
	}
	defer client.close()
	network, addr := "tcp", d.tcp
	if spec.udp {
		network, addr = "udp", d.udp
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	r.log.t0 = time.Now().Add(20 * time.Millisecond)
	if spec.rate > 0 {
		err = sendOpenLoop(ctx, conn, p, &r.log)
	} else {
		err = sendClosedLoop(ctx, conn, p, &r.log, time.Duration(seconds)*time.Second)
	}
	if err != nil {
		return nil, fmt.Errorf("sender: %w", err)
	}
	if err := r.drain(ctx, d, client); err != nil {
		return nil, err
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	r.cpuSeconds = cpu1 - cpu0

	fresh, err := freshFeedState(ctx, d.httpAddr, time.Now())
	if err != nil {
		return nil, err
	}
	r.finalRoots = fresh.roots()
	if err := client.close(); err != nil {
		return nil, err
	}
	if r.rssPeakMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	d.stop()
	r.collect(client)
	r.runChecks(client)
	return r, nil
}

// writeSlot puts one rendered slot on the wire: one write for a TCP
// stream, one datagram per alert for UDP, back to back. (Spreading a
// slot's datagrams over the slot was tried: skynetd's reader then wakes
// per datagram, costs a quarter more CPU and drops more, not less.)
func writeSlot(conn net.Conn, udp bool, buf []byte, ends []int) error {
	if !udp {
		_, err := conn.Write(buf)
		return err
	}
	lo := 0
	for _, hi := range ends {
		if _, err := conn.Write(buf[lo:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// sendOpenLoop sends slot s at t0 + s*slotEvery whatever the daemon
// does, and records how late each slot left.
func sendOpenLoop(ctx context.Context, conn net.Conn, p *plan, log *sendLog) error {
	var buf []byte
	var ends []int
	slots := len(p.slotEnd)
	log.slotDue = make([]time.Duration, slots)
	log.slotProbe = p.slotProbe
	log.late = make([]float64, 0, slots)
	for s := 0; s < slots; s++ {
		if s%64 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		off := time.Duration(s) * slotEvery
		due := log.t0.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		if s == 0 {
			log.start = now
		}
		log.late = append(log.late, float64(now.Sub(due))/float64(time.Millisecond))
		log.slotDue[s] = off
		probe := int(p.slotProbe[s])
		if probe >= 0 {
			log.probeDue = append(log.probeDue, due)
		}
		buf, ends = p.renderSlot(s, due, probe, p.spec.udp, buf[:0], ends[:0])
		if err := writeSlot(conn, p.spec.udp, buf, ends); err != nil {
			return err
		}
		log.alerts += len(ends)
	}
	log.end = time.Now()
	return nil
}

// sendClosedLoop writes slots back to back for the given time, stamping
// each with the moment its write starts, and slips a probe in whenever
// probeEvery has passed since the last.
func sendClosedLoop(ctx context.Context, conn net.Conn, p *plan, log *sendLog, length time.Duration) error {
	var buf []byte
	var ends []int
	time.Sleep(time.Until(log.t0))
	log.start = time.Now()
	nextProbe := log.start.Add(probeEvery)
	for s := 0; ; s++ {
		if s%64 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		now := time.Now()
		if now.Sub(log.start) >= length {
			log.end = now
			return nil
		}
		probe := -1
		if !now.Before(nextProbe) && len(log.probeDue) < len(p.probeRoots) {
			probe = len(log.probeDue)
			log.probeDue = append(log.probeDue, now)
			nextProbe = nextProbe.Add(probeEvery)
		}
		log.slotDue = append(log.slotDue, now.Sub(log.t0))
		log.slotProbe = append(log.slotProbe, int32(probe))
		buf, ends = p.renderSlot(s, now, probe, p.spec.udp, buf[:0], ends[:0])
		if err := writeSlot(conn, p.spec.udp, buf, ends); err != nil {
			return err
		}
		log.alerts += len(ends)
	}
}

// drain waits until the daemon has taken in everything that reached it,
// a tick has run over it and the client has read that tick's frame, and
// every probe has either been seen or is past missAfter.
func (r *e2eRun) drain(ctx context.Context, d *daemon, client *feedClient) error {
	sleep := func(d time.Duration) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
			return nil
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	prev, same := -1, 0
	for {
		st, err := d.stats()
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		// TCP is done when every alert is accounted for; UDP, where the
		// kernel may have dropped some, when the count stops moving.
		if st.RawIngested == prev {
			same++
		} else {
			prev, same = st.RawIngested, 0
		}
		if st.AlertsAccepted+st.AlertsRejected >= r.log.alerts && st.RawIngested >= st.AlertsAccepted || same >= 4 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: daemon still ingesting 20 s after the last send (%+v of %d sent)", st, r.log.alerts)
		}
		if err := sleep(25 * time.Millisecond); err != nil {
			return err
		}
	}
	ingested := time.Now()
	for !client.lastFired().After(ingested) {
		if time.Since(ingested) > missAfter {
			return errors.New("drain: no feed frame for 8 ticks after the last alert was ingested")
		}
		if err := sleep(5 * time.Millisecond); err != nil {
			return err
		}
	}
	if n := r.probesSent(); n > 0 {
		giveUp := r.log.probeDue[n-1].Add(missAfter)
		for client.seenCount(r.plan.probeRoots[:n]) < n && time.Now().Before(giveUp) {
			if err := sleep(5 * time.Millisecond); err != nil {
				return err
			}
		}
	}
	var err error
	r.stats, err = d.stats()
	return err
}

// collect turns the client's records into the run's samples.
func (r *e2eRun) collect(client *feedClient) {
	r.probeSent = map[string]bool{}
	for k, due := range r.log.probeDue {
		r.probeSent[r.plan.probeRoots[k]] = true
		seen, ok := client.firstSeen[r.plan.probeRoots[k]]
		if !ok || seen.Sub(due) > missAfter {
			r.missed++
			continue
		}
		r.detectMs = append(r.detectMs, ms(seen.Sub(due)))
	}
	for _, f := range client.frames {
		if f.fired.Before(r.log.start) || f.fired.After(r.log.end) {
			continue
		}
		r.frames = append(r.frames, f)
		r.feedLagMs = append(r.feedLagMs, ms(f.read.Sub(f.fired)))
		r.firePubMs = append(r.firePubMs, ms(f.published.Sub(f.fired)))
		r.pubReadMs = append(r.pubReadMs, ms(f.read.Sub(f.published)))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// isMetaRoot tells the incidents skynetd raises about itself, when one of
// its own SLO rules burns, from the load's.
func isMetaRoot(root string) bool { return strings.HasPrefix(root, "meta|") }

// probeLost reports whether a sent probe's missing incident is explained
// by shed alerts: a probe is only two alerts, and it then already counts
// as missed.
func (r *e2eRun) probeLost(root string) bool {
	return r.probeSent[root] && r.shed() > 0 && r.finalRoots[root] == 0
}

// runChecks verifies the run's outputs: the daemon's own accounting, and
// the incident population at the end against what the load must produce.
func (r *e2eRun) runChecks(client *feedClient) {
	st := r.stats
	sent := r.log.alerts
	// Self-monitoring alerts enter through the engine, not the sockets,
	// two per burning rule and tick.
	selfAlerts := st.RawIngested - st.AlertsAccepted
	metaIncidents := 0
	for root, n := range r.finalRoots {
		if isMetaRoot(root) {
			metaIncidents += n
		}
	}
	r.check("stats_sent_accounted", r.spec.udp && st.AlertsAccepted+st.AlertsRejected <= sent ||
		st.AlertsAccepted+st.AlertsRejected == sent,
		"sent %d, accepted %d + rejected %d", sent, st.AlertsAccepted, st.AlertsRejected)
	r.check("stats_rejects_are_sheds", st.AlertsRejected == st.RejectedQueueFull,
		"rejected %d of which queue-full %d: the generator sent something invalid", st.AlertsRejected, st.RejectedQueueFull)
	r.check("stats_raw_equals_accepted", selfAlerts == 0 || selfAlerts > 0 && selfAlerts%2 == 0 && metaIncidents > 0,
		"raw_ingested %d, alerts_accepted %d, meta incidents %d", st.RawIngested, st.AlertsAccepted, metaIncidents)

	var wrong []string
	for root := range r.probeSent {
		if n := r.finalRoots[root]; n != 1 && !r.probeLost(root) {
			wrong = append(wrong, fmt.Sprintf("%s: %d", root, n))
		}
	}
	r.check("probe_incidents", len(wrong) == 0, "probes without exactly one incident at their device: %s", head(wrong))

	want := map[string]bool{}
	for _, root := range r.plan.roots {
		want[root] = true
	}
	wrong = wrong[:0]
	for root, n := range r.finalRoots {
		if r.probeSent[root] || isMetaRoot(root) {
			continue
		}
		if !want[root] || n != 1 {
			wrong = append(wrong, fmt.Sprintf("unexpected %s x%d", root, n))
		}
	}
	if r.shed() == 0 {
		for root := range want {
			if r.finalRoots[root] == 0 {
				wrong = append(wrong, "missing "+root)
			}
		}
	}
	r.check("background_incidents", len(wrong) == 0, "want one incident at each of %d roots: %s", len(want), head(wrong))

	same := len(client.state.roots()) == len(r.finalRoots)
	for root, n := range client.state.roots() {
		same = same && r.finalRoots[root] == n
	}
	r.check("fresh_subscription_matches_stream", same,
		"a fresh snapshot+delta subscription rebuilt %d roots, the run-long one %d", len(r.finalRoots), len(client.state.roots()))

	if r.spec.rate > 0 {
		late := sorted(r.log.late)
		r.check("generator_on_time", quantile(late, 0.99) <= ms(maxLateP99),
			"gen_late_p99 %.2f ms is over %v: the run is invalid", quantile(late, 0.99), maxLateP99)
	}
}

// head joins the first few of a sorted list for an error message.
func head(list []string) string {
	sort.Strings(list)
	if len(list) > 5 {
		return strings.Join(list[:5], "; ") + fmt.Sprintf("; and %d more", len(list)-5)
	}
	return strings.Join(list, "; ")
}
