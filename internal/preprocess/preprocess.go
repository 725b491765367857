// Package preprocess implements SkyNet's preprocessor (§4.1): it converts
// the raw, per-tool alert streams into the uniform structured format and
// fights the volume problem with three consolidation mechanisms:
//
//  1. Consolidate identical alerts — repeats of the same (source, type,
//     location) collapse into one alert whose End/Count grow (SNMP
//     re-reporting a down interface every round becomes one alert with a
//     duration).
//  2. Consolidate within a data source — sporadic packet loss is ignored
//     until it persists; a traffic surge adjacent to an already-known
//     surge is the same traffic moving and is filtered.
//  3. Consolidate across data sources — a sudden traffic drop alone is
//     expected user behaviour; it passes only when corroborated by a
//     failure or device-error alert nearby.
//
// Syslog lines arrive as free text and are classified through FT-tree
// templates before anything else.
//
// The preprocessor is a stream processor: Add ingests raw alerts, Tick
// advances time and emits the structured survivors.
//
// # Sharded execution
//
// Add only buffers; all per-alert work happens in Tick, which fans the
// buffered batch out to Config.Workers workers in two parallel phases —
// FT-tree classification/normalization (per-alert independent) and
// per-aggregate consolidation (alerts hashed by aggregate key, so each
// aggregate has a single owner) — then drains the aggregates serially in
// one globally sorted key order. Emission order, assigned IDs, and every
// filter decision are therefore identical for any worker count, including
// the serial Workers=1 path.
package preprocess

import (
	"slices"
	"time"

	"skynet/internal/alert"
	"skynet/internal/ftree"
	"skynet/internal/hierarchy"
	"skynet/internal/intern"
	"skynet/internal/par"
	"skynet/internal/provenance"
	"skynet/internal/span"
	"skynet/internal/topology"
)

// Config tunes the preprocessor. Zero value is unusable; start from
// DefaultConfig.
type Config struct {
	// AggWindow is how long an aggregate lives without new observations
	// before it closes. Matches the locator's 5-minute node lifetime.
	AggWindow time.Duration
	// RefreshInterval re-emits a still-active aggregate so downstream
	// trees stay alive ("updates the timestamp of the initial alert").
	RefreshInterval time.Duration
	// CorroborationWindow bounds how long a traffic-drop alert waits for
	// cross-source confirmation before being discarded.
	CorroborationWindow time.Duration
	// SporadicLossValue is the loss ratio below which packet loss is
	// "sporadic" and must persist to pass.
	SporadicLossValue float64
	// SporadicMinCount is how many observations a sporadic-loss aggregate
	// needs before emission.
	SporadicMinCount int
	// CorroborationLevel is the hierarchy level at which cross-source
	// corroboration is evaluated (default: site).
	CorroborationLevel hierarchy.Level
	// DisableCrossSource turns off the cross-source consolidation rule
	// (traffic drops pass without corroboration) — an ablation switch;
	// the paper's design has the rule on.
	DisableCrossSource bool
	// Workers bounds the classification/consolidation fan-out in Tick.
	// 0 means GOMAXPROCS; 1 runs fully serial. Output is identical for
	// every setting.
	Workers int
}

// DefaultConfig returns the production-like defaults.
func DefaultConfig() Config {
	return Config{
		AggWindow:           5 * time.Minute,
		RefreshInterval:     time.Minute,
		CorroborationWindow: 2 * time.Minute,
		SporadicLossValue:   0.05,
		SporadicMinCount:    3,
		CorroborationLevel:  hierarchy.LevelSite,
	}
}

// Stats counts the preprocessor's volume reduction for the Fig. 8b
// experiment. Counters other than In update when Tick processes the
// buffered batch.
type Stats struct {
	// In is the number of raw alerts ingested.
	In int
	// Out is the number of structured alerts emitted.
	Out int
	// Deduplicated counts raw alerts absorbed into an existing aggregate.
	Deduplicated int
	// DroppedSporadic counts sporadic losses that never persisted.
	DroppedSporadic int
	// DroppedRelated counts surge alerts filtered as propagation of a
	// neighbour's surge.
	DroppedRelated int
	// DroppedUncorroborated counts traffic drops with no cross-source
	// confirmation.
	DroppedUncorroborated int
	// DroppedUnclassified counts syslog lines matching no labeled
	// template.
	DroppedUnclassified int
}

// aggKey identifies one aggregate: one alert stream at one location.
// Streams of the same type on different circuit sets stay separate so the
// evaluator's per-set ratios survive consolidation. All three parts are
// dense interned IDs (circuit sets included), so hashing a key is a
// 12-byte memhash with no string walk at all.
type aggKey struct {
	pid intern.PathID
	tid intern.TypeID
	cs  int32
}

// aggregate is one live (source, type, location) stream.
type aggregate struct {
	key aggKey
	// chain links aggregates that share a location, threaded from the
	// shard's byPid table — consolidation's lookup structure.
	chain    *aggregate
	a        alert.Alert
	emitted  bool
	dead     bool // swept away; awaiting key-list compaction
	lastEmit time.Time
	lastSeen time.Time
	// emittedCount is how many raw observations have been reported
	// downstream, so refreshes carry deltas rather than re-counting.
	emittedCount int
	suspended    bool // waiting for corroboration (traffic drops)
	// headLineage is the provenance lineage of the alert that opened this
	// aggregate, carried until the aggregate's fate is known (first
	// emission or a filter drop); refreshes carry no lineage.
	headLineage uint64
}

// preShard owns a disjoint subset of the aggregates, selected by hashing
// the aggregate's location. Exactly one worker touches a shard per phase.
type preShard struct {
	// byPid indexes the shard's live aggregates by interned location ID:
	// byPid[pid] heads a short chain (via aggregate.chain) of the
	// streams at that location. Consolidation's lookup is then an array
	// index plus a couple of int compares — no hashing at all. The
	// slice is shard-local, so growing it inside the parallel phase is
	// race-free; live counts the chained aggregates.
	byPid []*aggregate
	live  int
	// keys mirrors the map's value set in emission order, maintained
	// incrementally so Tick never re-sorts the full population. Holding
	// the aggregates directly lets the sweep and the k-way merge walk the
	// population with zero map lookups.
	keys []*aggregate

	// per-tick scratch, merged into Stats serially after each phase
	newAggs []*aggregate
	dedup   int
	// routing counts the rows consolidated into this shard by every absorb
	// since the last Tick; Tick publishes it as routed and restarts it.
	routing int
	routed  int
	deleted int // sweep deletions pending key-list compaction

	// aggFree recycles swept aggregate structs so steady-state churn
	// (streams expiring and reappearing) does not allocate.
	aggFree []*aggregate

	// provenance resolutions staged during phase B, flushed serially
	provAbsorbed []provenance.Pair
}

// prepared is the small per-row phase-A/serial-pass sidecar for one
// buffered raw alert. The alert data itself lives in the pending batch's
// columns (normalized in place by phase A); the interned PID/TID/CS land
// in the batch's dense-ID columns. What remains here is routing and
// bookkeeping — 16 bytes per row instead of a full Alert copy.
type prepared struct {
	lin        uint64 // provenance lineage (0 when recording is off)
	shard      int32
	drop       bool // unclassifiable syslog
	classified bool // typed through an FT-tree template this tick
}

// chunkScratch is the phase-A per-worker scratch; slot i belongs to chunk
// i, so no two goroutines share state.
type chunkScratch struct {
	droppedUnclassified int
}

// maxPending bounds the pending columns: AddBatch absorbs them into the
// aggregate shards as soon as this many rows wait, instead of keeping a
// whole tick's raw alerts for Tick. A flood delivers 10⁵ rows between two
// ticks; holding them costs ~350 B of column memory each, and absorbing
// them all at once is an O(raw alerts) pass inside the tick, while the
// ingest queue fills behind the engine lock. 8 192 rows keep the columns
// near 3 MB and one absorb near a millisecond, and are still enough rows
// per fan-out that the workers' fork/join cost is noise. Absorbing is
// the same work in the same arrival order whenever it runs, and nothing
// between two sweeps reads the shards, so where the cuts fall cannot
// change what Tick emits (TestAbsorbChunkingInvariance).
const maxPending = 8192

// Preprocessor is the streaming §4.1 stage. Add, AddBatch and Tick must
// be called from one goroutine at a time (the engine lock); absorbing
// fans work out to Config.Workers goroutines.
type Preprocessor struct {
	cfg        Config
	topo       *topology.Topology
	classifier *ftree.Classifier
	workers    int

	// pending buffers raw alerts until the next absorb, in columnar form
	// and never more than maxPending of them; column capacity persists so
	// steady state allocates nothing.
	pending alert.Batch
	// pendingLin mirrors pending's rows with the lineage assigned at
	// AddBatch; empty when no recorder is attached.
	pendingLin []uint64
	// one is Add's one-row batch.
	one alert.Batch

	// prov is the optional lineage recorder; nil keeps every provenance
	// branch off the hot path.
	prov *provenance.Recorder

	// scope is the preprocess stage's seam for the current engine tick:
	// classify, consolidate and sweep are entered through it. The zero
	// Scope (no tracing, no profiling) makes each a plain call.
	scope span.Scope

	shards []preShard

	// pt/tt intern locations and (source, type) pairs into dense IDs.
	// Single-writer: Intern is only called from the serial pass between
	// the parallel phases; the per-PathID tables below grow in lockstep.
	pt *intern.PathTable
	tt *intern.TypeTable
	// routeOf maps PathID → owning shard; corroOf maps PathID → the
	// PathID of its ancestor at CorroborationLevel.
	routeOf []int32
	corroOf []intern.PathID
	// csIDs interns circuit-set strings; 0 is reserved for "no set" so
	// the common case skips the map entirely.
	csIDs map[string]int32

	// corroT records recent corroborating evidence per corroboration-level
	// location: the last time a failure/root-cause alert was seen there,
	// indexed by interned PathID (zero time = no evidence). corroList
	// tracks which slots are set so expiry never scans the full table.
	corroT    []time.Time
	corroList []intern.PathID

	stats  Stats
	nextID uint64

	// reused per-tick buffers
	prep    []prepared
	chunks  []chunkScratch
	emitBuf []alert.Alert
	cursors []int
}

// New builds a preprocessor. The classifier may be nil, in which case raw
// syslog lines are dropped as unclassifiable; topo may be nil, disabling
// the adjacency-based related-surge filter.
func New(cfg Config, topo *topology.Topology, classifier *ftree.Classifier) *Preprocessor {
	workers := par.Workers(cfg.Workers)
	p := &Preprocessor{
		cfg:        cfg,
		topo:       topo,
		classifier: classifier,
		workers:    workers,
		shards:     make([]preShard, workers),
		pt:         intern.NewPathTable(),
		tt:         intern.NewTypeTable(),
		csIDs:      make(map[string]int32),
		chunks:     make([]chunkScratch, workers),
		cursors:    make([]int, workers),
	}
	return p
}

// growTables extends the per-PathID tables to cover newly interned
// paths. Serial pass only, never during a parallel phase.
func (p *Preprocessor) growTables() {
	for id := len(p.routeOf); id < p.pt.Len(); id++ {
		pid := intern.PathID(id)
		p.routeOf = append(p.routeOf, int32(shardIndex(p.pt.Path(pid), p.workers)))
		corro := pid
		for p.pt.Depth(corro) > int(p.cfg.CorroborationLevel) {
			corro = p.pt.Parent(corro)
		}
		p.corroOf = append(p.corroOf, corro)
	}
	if len(p.corroT) < p.pt.Len() {
		p.corroT = append(p.corroT, make([]time.Time, p.pt.Len()-len(p.corroT))...)
	}
}

// Workers reports the resolved fan-out width (shard count).
func (p *Preprocessor) Workers() int { return p.workers }

// EnableProvenance attaches a lineage recorder. Call before the first Add;
// with no recorder the pipeline runs exactly as before.
func (p *Preprocessor) EnableProvenance(rec *provenance.Recorder) { p.prov = rec }

// SetScope installs the stage seam for the next Tick: the classify and
// consolidate fan-outs and the sweep become child stages of the scope's
// owner. The engine refreshes it every tick; it never affects what the
// preprocessor emits.
func (p *Preprocessor) SetScope(sc span.Scope) { p.scope = sc }

// PendingDepth reports the number of raw alerts buffered and not yet
// absorbed — the preprocessor's queue depth, below maxPending.
func (p *Preprocessor) PendingDepth() int { return p.pending.Len() }

// ShardAggregates reports the live aggregate count of one shard.
func (p *Preprocessor) ShardAggregates(i int) int { return p.shards[i].live }

// ShardRouted reports how many raw alerts were consolidated into shard i
// for the last Tick: by that Tick's own absorb and by every AddBatch
// absorb since the Tick before.
func (p *Preprocessor) ShardRouted(i int) int { return p.shards[i].routed }

// Stats returns a snapshot of the volume counters.
func (p *Preprocessor) Stats() Stats { return p.stats }

// Add buffers one raw alert: AddBatch on a one-row batch.
func (p *Preprocessor) Add(a alert.Alert) {
	p.one.Reset()
	p.one.Append(&a)
	p.AddBatch(&p.one)
}

// AddBatch buffers a columnar batch of raw alerts; classification and
// consolidation happen when maxPending rows wait or at the next Tick,
// whichever comes first. The rows are copied onto the pending columns,
// so the caller may Reset and reuse b immediately.
//
// It reports whether the batch carries new evidence: a row whose
// consolidation key (location, type, circuit set) has no live aggregate,
// or a still-unclassified syslog row at a location with no live
// aggregate of any type. Only such a row can change what the locator
// counts (§4.2 counts alert types per location, not occurrences); a
// repeat of a known stream only grows its aggregate. The check reads the
// IDs the append interns anyway and allocates nothing.
//
// Link-alert split (§4.1): "an alert related to a link is split into two
// alerts corresponding to the devices it connects". The built-in
// monitors already emit per-endpoint alerts; this handles externally
// ingested collectors that report one alert per link. Such a row is
// buffered twice — the mirrored half first, then the row itself at the
// head of the next run — and the runs between are copied column-wise.
func (p *Preprocessor) AddBatch(b *alert.Batch) bool {
	n := b.Len()
	p.stats.In += n
	fresh := false
	lo := 0
	for i := 0; i < n; i++ {
		if b.CircuitSet[i] != "" && b.Location[i].IsDevice() && b.Peer[i].IsDevice() &&
			b.Peer[i] != b.Location[i] {
			fresh = p.appendRun(b, lo, i, false) || fresh
			fresh = p.appendRun(b, i, i+1, true) || fresh
			lo = i
		}
	}
	return p.appendRun(b, lo, n, false) || fresh
}

// appendRun copies rows [lo, hi) of b onto the pending columns — with
// the endpoints swapped when the run is the mirrored half of a link
// alert — interns their IDs, and has the lineage recorder, if any,
// number the new rows. It reports whether any of them is new evidence.
// Whenever the pending columns reach maxPending they are absorbed, here
// and not in a tick: on the zero Scope, because the tick's is stale and
// its labeler belongs to the ticking goroutine.
func (p *Preprocessor) appendRun(b *alert.Batch, lo, hi int, mirrored bool) bool {
	fresh := false
	for lo < hi {
		at := p.pending.Len()
		cut := min(hi, lo+maxPending-at)
		p.pending.AppendRange(b, lo, cut)
		if mirrored {
			p.pending.Location[at], p.pending.Peer[at] = p.pending.Peer[at], p.pending.Location[at]
		}
		fresh = p.internRows(at, p.pending.Len()) || fresh
		p.pendingLin = p.prov.IngestRange(p.pendingLin, &p.pending, at, p.pending.Len(), mirrored)
		if p.pending.Len() == maxPending {
			p.absorb(span.Scope{})
		}
		lo = cut
	}
	return fresh
}

// internRows resolves the dense-ID columns of pending rows [lo, hi) —
// the single-writer intern tables are only ever touched here and in
// absorb's serial pass, both outside any parallel phase — and reports
// whether any row is new evidence. A raw syslog row is typed only after
// phase A classifies it, so its TID stays NoID until absorb.
func (p *Preprocessor) internRows(lo, hi int) bool {
	b := &p.pending
	fresh := false
	for i := lo; i < hi; i++ {
		pid := p.pt.Intern(b.Location[i])
		b.PID[i] = int32(pid)
		if p.pt.Len() > len(p.routeOf) {
			p.growTables()
		}
		b.CS[i] = 0
		if cs := b.CircuitSet[i]; cs != "" {
			id, ok := p.csIDs[cs]
			if !ok {
				id = int32(len(p.csIDs)) + 1
				p.csIDs[cs] = id
			}
			b.CS[i] = id
		}
		if b.Source[i] == alert.SourceSyslog && b.Type[i] == "" {
			b.TID[i] = alert.NoID
			fresh = fresh || p.streams(pid) == nil
			continue
		}
		tid := p.tt.Intern(alert.TypeKey{Source: b.Source[i], Type: b.Type[i]})
		b.TID[i] = int32(tid)
		if !fresh {
			fresh = true
			for g := p.streams(pid); g != nil; g = g.chain {
				if g.key.tid == tid && g.key.cs == b.CS[i] {
					fresh = false
					break
				}
			}
		}
	}
	return fresh
}

// streams heads the chain of live aggregates at location pid (nil when
// there are none) in the shard that owns it.
func (p *Preprocessor) streams(pid intern.PathID) *aggregate {
	byPid := p.shards[p.routeOf[pid]].byPid
	if int(pid) >= len(byPid) {
		return nil
	}
	return byPid[pid]
}

// absorb ingests the pending batch into the aggregate shards: phase A
// classifies and normalizes every alert in parallel, a serial pass
// types the rows phase A classified and collects corroboration
// evidence, and phase B
// consolidates each shard's alerts in arrival order under a single
// owner. The two fan-outs are stages forked through sc.
func (p *Preprocessor) absorb(sc span.Scope) {
	n := p.pending.Len()
	if n == 0 {
		return
	}
	if cap(p.prep) < n {
		p.prep = make([]prepared, n)
	}
	p.prep = p.prep[:n]
	nshards := len(p.shards)

	// Phase A: per-alert classification and normalization, chunked over
	// the workers. Row i of the batch and slot i of prep belong to each
	// other, and every column write is row-owned, so worker scheduling
	// cannot reorder or race anything.
	chunkSize := (n + p.workers - 1) / p.workers
	nchunks := (n + chunkSize - 1) / chunkSize
	sc.Fork("classify", p.workers, nchunks, func(c int) {
		lo, hi := c*chunkSize, (c+1)*chunkSize
		if hi > n {
			hi = n
		}
		scratch := &p.chunks[c]
		for i := lo; i < hi; i++ {
			if i < len(p.pendingLin) {
				p.prep[i].lin = p.pendingLin[i]
			} else {
				p.prep[i].lin = 0
			}
			p.prepareRow(i, &p.prep[i], scratch)
		}
	})
	// Serial pass: type the rows phase A classified (the rest were
	// interned at append), route to shards, record corroboration
	// evidence (max observation time per location), resolve phase-A
	// provenance, and merge drop counters.
	b := &p.pending
	for i := range p.prep {
		it := &p.prep[i]
		if it.drop {
			if p.prov != nil && it.lin != 0 {
				p.prov.Filtered(it.lin, provenance.FilterUnclassified)
			}
			continue
		}
		pid := intern.PathID(b.PID[i])
		if it.classified {
			b.TID[i] = int32(p.tt.Intern(alert.TypeKey{Source: b.Source[i], Type: b.Type[i]}))
		}
		it.shard = p.routeOf[pid]
		if b.Class[i] == alert.ClassFailure || b.Class[i] == alert.ClassRootCause {
			key := p.corroOf[pid]
			if t := p.corroT[key]; t.IsZero() {
				p.corroT[key] = b.Time[i]
				p.corroList = append(p.corroList, key)
			} else if b.Time[i].After(t) {
				p.corroT[key] = b.Time[i]
			}
		}
		if p.prov != nil && it.lin != 0 && it.classified {
			p.prov.SetTemplate(it.lin, b.Type[i])
		}
	}
	for c := 0; c < nchunks; c++ {
		p.stats.DroppedUnclassified += p.chunks[c].droppedUnclassified
		p.chunks[c].droppedUnclassified = 0
	}

	// Phase B: per-shard consolidation. Each worker scans the batch in
	// row order and applies only its own shard's rows, so every
	// aggregate sees its observations in arrival order — exactly the
	// serial semantics. Merges read only the scalar columns; a full
	// Alert is materialized once per new aggregate, not per row.
	sc.Fork("consolidate", p.workers, nshards, func(s int) {
		shard := &p.shards[s]
		shard.dedup = 0
		shard.newAggs = shard.newAggs[:0]
		// Cover every PathID interned by the serial pass. byPid is
		// shard-local, so this grow cannot race other workers.
		if n := p.pt.Len(); len(shard.byPid) < n {
			shard.byPid = append(shard.byPid, make([]*aggregate, n-len(shard.byPid))...)
		}
		for i := range p.prep {
			it := &p.prep[i]
			if it.drop || int(it.shard) != s {
				continue
			}
			shard.routing++
			p.consolidate(shard, i, it)
		}
		if len(shard.newAggs) > 0 {
			slices.SortFunc(shard.newAggs, cmpAgg)
			shard.keys = mergeSortedAggs(shard.keys, shard.newAggs)
		}
	})
	for s := range p.shards {
		p.stats.Deduplicated += p.shards[s].dedup
		if len(p.shards[s].provAbsorbed) > 0 {
			p.prov.ConsolidatedAll(p.shards[s].provAbsorbed)
			p.shards[s].provAbsorbed = p.shards[s].provAbsorbed[:0]
		}
	}
	p.pending.Reset()
	p.pendingLin = p.pendingLin[:0]
}

// prepareRow runs the order-independent per-alert work on batch row i:
// syslog classification and class/count/end normalization, in place on
// the columns.
func (p *Preprocessor) prepareRow(i int, out *prepared, scratch *chunkScratch) {
	out.classified = false
	b := &p.pending
	// Syslog classification: free text → type via FT-tree.
	if b.Source[i] == alert.SourceSyslog && b.Type[i] == "" {
		typ, ok := p.classify(b.Raw[i])
		if !ok {
			scratch.droppedUnclassified++
			out.drop = true
			return
		}
		b.Type[i] = typ
		b.Class[i] = alert.Classify(alert.SourceSyslog, typ)
		out.classified = true
	}
	if b.Class[i] == alert.ClassInfo {
		// Normalize class from the catalog when the producer left it
		// unset.
		if c := alert.Classify(b.Source[i], b.Type[i]); c != alert.ClassInfo {
			b.Class[i] = c
		}
	}
	if b.Count[i] <= 0 {
		b.Count[i] = 1
	}
	if b.End[i].Before(b.Time[i]) {
		b.End[i] = b.Time[i]
	}
	out.drop = false
}

// consolidate applies consolidation 1 (identical alerts absorb) for one
// normalized batch row within its owning shard. it.lin is the row's
// provenance lineage (0 when recording is off); absorptions are staged in
// shard scratch because this runs in the parallel phase.
func (p *Preprocessor) consolidate(shard *preShard, i int, it *prepared) {
	b := &p.pending
	k := aggKey{pid: intern.PathID(b.PID[i]), tid: intern.TypeID(b.TID[i]), cs: b.CS[i]}
	for g := shard.byPid[k.pid]; g != nil; g = g.chain {
		if g.key.tid != k.tid || g.key.cs != k.cs {
			continue
		}
		shard.dedup++
		if b.End[i].After(g.a.End) {
			g.a.End = b.End[i]
		}
		if b.Value[i] > g.a.Value {
			g.a.Value = b.Value[i]
		}
		g.a.Count += int(b.Count[i])
		g.lastSeen = b.Time[i]
		if it.lin != 0 {
			shard.provAbsorbed = append(shard.provAbsorbed, provenance.Pair{Lid: it.lin, Head: g.headLineage})
		}
		return
	}
	suspended := b.Type[i] == alert.TypeTrafficDrop && !p.cfg.DisableCrossSource
	var g *aggregate
	if n := len(shard.aggFree); n > 0 {
		g = shard.aggFree[n-1]
		shard.aggFree = shard.aggFree[:n-1]
		*g = aggregate{key: k, lastSeen: b.Time[i], suspended: suspended, headLineage: it.lin}
	} else {
		g = &aggregate{key: k, lastSeen: b.Time[i], suspended: suspended, headLineage: it.lin}
	}
	b.AlertAt(i, &g.a)
	g.chain = shard.byPid[k.pid]
	shard.byPid[k.pid] = g
	shard.live++
	shard.newAggs = append(shard.newAggs, g)
}

// unlink removes g from its location's consolidation chain. Chains are a
// handful of streams long, so the predecessor walk is trivial.
func (shard *preShard) unlink(g *aggregate) {
	if cur := shard.byPid[g.key.pid]; cur == g {
		shard.byPid[g.key.pid] = g.chain
	} else {
		for ; cur != nil; cur = cur.chain {
			if cur.chain == g {
				cur.chain = g.chain
				break
			}
		}
	}
	g.chain = nil
	shard.live--
}

// classify runs the FT-tree classifier over a raw line. The classifier is
// immutable after construction, so concurrent phase-A calls are safe.
func (p *Preprocessor) classify(raw string) (string, bool) {
	if p.classifier == nil || raw == "" {
		return "", false
	}
	return p.classifier.ClassifyLine(raw)
}

// Tick absorbs whatever is still pending and returns the structured alerts
// emitted at now: new aggregates that pass the filters, refreshes of
// long-running aggregates, and corroborated traffic drops. Expired
// aggregates are garbage collected.
//
// The returned slice is reused by the next Tick or Drain call; callers
// that retain alerts past that point must copy them.
func (p *Preprocessor) Tick(now time.Time) []alert.Alert {
	if p.prov != nil {
		p.prov.BeginEmitWindow()
	}
	p.absorb(p.scope)
	for s := range p.shards {
		p.shards[s].routed, p.shards[s].routing = p.shards[s].routing, 0
	}
	// Sweep aggregates in one global lessAggKey order (a k-way merge of
	// the shards' sorted key lists) so emission order, assigned IDs, and
	// the related-surge decisions are identical for every worker count.
	sw := p.scope.Enter("sweep", nil)
	p.emitBuf = p.emitBuf[:0]
	p.sweep(now, func(shard *preShard, g *aggregate) {
		if now.Sub(g.lastSeen) > p.cfg.AggWindow {
			// Aggregate went quiet: account for the never-emitted ones.
			if !g.emitted {
				switch {
				case g.suspended:
					p.stats.DroppedUncorroborated++
					p.resolveFiltered(g, provenance.FilterUncorroborated)
				case p.isSporadic(g):
					p.stats.DroppedSporadic++
					p.resolveFiltered(g, provenance.FilterSporadic)
				default:
					p.resolveFiltered(g, provenance.FilterStale)
				}
			}
			shard.unlink(g)
			g.dead = true
			shard.deleted++
			return
		}
		if g.emitted {
			if now.Sub(g.lastEmit) >= p.cfg.RefreshInterval && g.lastSeen.After(g.lastEmit) {
				p.emitBuf = append(p.emitBuf, p.emit(g, now))
			}
			return
		}
		if !p.pass(g, now) {
			return
		}
		p.emitBuf = append(p.emitBuf, p.emit(g, now))
	})
	p.compactKeys()
	sw.Exit(len(p.emitBuf))
	// Expire stale corroboration evidence.
	for i := 0; i < len(p.corroList); {
		loc := p.corroList[i]
		if now.Sub(p.corroT[loc]) > p.cfg.CorroborationWindow {
			p.corroT[loc] = time.Time{}
			last := len(p.corroList) - 1
			p.corroList[i] = p.corroList[last]
			p.corroList = p.corroList[:last]
		} else {
			i++
		}
	}
	return p.emitBuf
}

// sweep visits every live aggregate in global emission order (a k-way
// merge over the shards' sorted aggregate lists — no map lookups). The
// visitor may delete the current aggregate from its shard (marking it
// dead and bumping shard.deleted); compactKeys reconciles the lists
// afterwards.
func (p *Preprocessor) sweep(now time.Time, visit func(shard *preShard, g *aggregate)) {
	cursors := p.cursors
	for i := range cursors {
		cursors[i] = 0
	}
	for {
		best := -1
		for s := range p.shards {
			keys := p.shards[s].keys
			if cursors[s] >= len(keys) {
				continue
			}
			if best < 0 || cmpAgg(keys[cursors[s]], p.shards[best].keys[cursors[best]]) < 0 {
				best = s
			}
		}
		if best < 0 {
			return
		}
		shard := &p.shards[best]
		g := shard.keys[cursors[best]]
		cursors[best]++
		visit(shard, g)
	}
}

// compactKeys drops swept-away aggregates from each shard's sorted list,
// in parallel — each shard is owned by one task.
func (p *Preprocessor) compactKeys() {
	par.Do(p.workers, len(p.shards), func(s int) {
		shard := &p.shards[s]
		if shard.deleted == 0 {
			return
		}
		kept := shard.keys[:0]
		for _, g := range shard.keys {
			if !g.dead {
				kept = append(kept, g)
			} else {
				// Recycle: the struct is unreferenced once off the keys
				// list (unlink already dropped it from the byPid chain).
				shard.aggFree = append(shard.aggFree, g)
			}
		}
		for i := len(kept); i < len(shard.keys); i++ {
			shard.keys[i] = nil
		}
		shard.keys = kept
		shard.deleted = 0
	})
}

// pass applies the single-source and cross-source consolidation rules to a
// not-yet-emitted aggregate.
func (p *Preprocessor) pass(g *aggregate, now time.Time) bool {
	// Cross-source rule: traffic drops wait for corroboration.
	if g.suspended {
		key := p.corroOf[g.key.pid]
		if t := p.corroT[key]; !t.IsZero() && absDuration(t.Sub(g.a.Time)) <= p.cfg.CorroborationWindow {
			g.suspended = false
			return true
		}
		return false
	}
	// Single-source rule: sporadic loss must persist.
	if p.isSporadic(g) && g.a.Count < p.cfg.SporadicMinCount {
		return false
	}
	// Single-source rule: a surge adjacent to an already-emitted surge is
	// the same traffic shifting; filter it.
	if g.a.Type == alert.TypeTrafficSurge && p.adjacentSurgeEmitted(g) {
		g.emitted = true // swallow without output
		g.lastEmit = now
		p.stats.DroppedRelated++
		p.resolveFiltered(g, provenance.FilterRelated)
		return false
	}
	return true
}

// resolveFiltered records a filter drop for the aggregate's head lineage,
// consuming it so no later path can resolve it twice. Called only from the
// serial sweep/pass sections.
func (p *Preprocessor) resolveFiltered(g *aggregate, reason provenance.FilterReason) {
	if p.prov != nil && g.headLineage != 0 {
		p.prov.Filtered(g.headLineage, reason)
		g.headLineage = 0
	}
}

// isSporadic reports whether an aggregate is low-rate packet loss.
func (p *Preprocessor) isSporadic(g *aggregate) bool {
	return g.a.Type == alert.TypePacketLoss && g.a.Value < p.cfg.SporadicLossValue
}

// adjacentSurgeEmitted checks whether a surge at a topologically adjacent
// device has already been emitted. The existence scan is order-free, so
// shard iteration order cannot change the answer.
func (p *Preprocessor) adjacentSurgeEmitted(g *aggregate) bool {
	if p.topo == nil {
		return false
	}
	for s := range p.shards {
		for _, other := range p.shards[s].keys {
			if other.dead || other.a.Type != alert.TypeTrafficSurge || !other.emitted || other == g {
				continue
			}
			if p.topo.Adjacent(g.a.Location, other.a.Location) {
				return true
			}
		}
	}
	return false
}

// emit finalizes an output alert from an aggregate. The emitted Count is
// the delta of raw observations since the previous emission, so downstream
// accumulation stays exact across refreshes.
func (p *Preprocessor) emit(g *aggregate, now time.Time) alert.Alert {
	g.emitted = true
	g.lastEmit = now
	p.nextID++
	p.stats.Out++
	a := g.a
	a.ID = p.nextID
	a.Count = g.a.Count - g.emittedCount
	if a.Count < 1 {
		a.Count = 1
	}
	g.emittedCount = g.a.Count
	// The first emission hands the head lineage to the locator via the
	// structured alert's ID; refreshes carry no lineage.
	if p.prov != nil && g.headLineage != 0 {
		p.prov.Emitted(a.ID, g.headLineage)
		g.headLineage = 0
	}
	return a
}

// Drain flushes every live aggregate regardless of filters; used at
// end-of-trace so batch analyses see pending data. Like Tick, the
// returned slice is reused by the next Tick or Drain call.
func (p *Preprocessor) Drain(now time.Time) []alert.Alert {
	if p.prov != nil {
		p.prov.BeginEmitWindow()
	}
	p.absorb(p.scope)
	p.emitBuf = p.emitBuf[:0]
	p.sweep(now, func(shard *preShard, g *aggregate) {
		if !g.emitted && !g.suspended && !p.isSporadic(g) {
			p.emitBuf = append(p.emitBuf, p.emit(g, now))
		} else if g.headLineage != 0 {
			switch {
			case g.suspended:
				p.resolveFiltered(g, provenance.FilterUncorroborated)
			case p.isSporadic(g):
				p.resolveFiltered(g, provenance.FilterSporadic)
			default:
				p.resolveFiltered(g, provenance.FilterStale)
			}
		}
		shard.unlink(g)
		g.dead = true
		shard.deleted++
	})
	p.compactKeys()
	return p.emitBuf
}

// shardIndex routes a location to its owning shard with an FNV-1a hash
// over the path segments. Routing only affects which goroutine owns an
// aggregate, never the output; all streams at one location share a
// shard.
func shardIndex(p hierarchy.Path, n int) int {
	if n == 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for l := 1; l <= p.Depth(); l++ {
		s := p.Segment(hierarchy.Level(l))
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // segment terminator so ("ab","c") != ("a","bc")
		h *= prime64
	}
	return int(h % uint64(n))
}

// mergeSortedAggs merges two cmpAgg-sorted, disjoint aggregate lists
// into one, in place on dst's backing array when capacity allows.
func mergeSortedAggs(dst, add []*aggregate) []*aggregate {
	if len(add) == 0 {
		return dst
	}
	if len(dst) == 0 {
		return append(dst, add...)
	}
	n, m := len(dst), len(add)
	dst = append(dst, add...) // grow; tail will be overwritten by the merge
	i, j, w := n-1, m-1, n+m-1
	for j >= 0 {
		if i >= 0 && cmpAgg(add[j], dst[i]) < 0 {
			dst[w] = dst[i]
			i--
		} else {
			dst[w] = add[j]
			j--
		}
		w--
	}
	return dst
}

// cmpAgg orders aggregates for deterministic emission: source, type,
// location, circuit set — the same order the aggKey sort used before
// keys were interned, so output order is unchanged.
func cmpAgg(x, y *aggregate) int {
	if x.a.Source != y.a.Source {
		if x.a.Source < y.a.Source {
			return -1
		}
		return 1
	}
	if x.a.Type != y.a.Type {
		if x.a.Type < y.a.Type {
			return -1
		}
		return 1
	}
	if c := x.a.Location.Compare(y.a.Location); c != 0 {
		return c
	}
	if x.a.CircuitSet != y.a.CircuitSet {
		if x.a.CircuitSet < y.a.CircuitSet {
			return -1
		}
		return 1
	}
	return 0
}

func absDuration(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
