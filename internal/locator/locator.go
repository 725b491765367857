// Package locator implements SkyNet's locator (§4.2): the hierarchical
// main alert tree, incident-tree generation, and their timeout handling —
// Algorithms 1, 2, and 3 of the paper.
//
// Key design points reproduced from the paper:
//
//   - Alerts live in a location-indexed tree and expire after 5 minutes,
//     a bound chosen because old SNMP agents deliver up to ~2 minutes
//     late and transmission gaps can double that.
//   - Counting is per alert TYPE, not per instance: a probe error that
//     spams a thousand identical "device down" alerts counts once.
//   - Counting is scoped to topologically connected areas: alerts from a
//     device with no link to the other alerting devices belong to a
//     different root cause (the two incident trees of Figure 5c).
//   - Incident thresholds — "2 failure | 1 failure + 2 other | 5 any" in
//     production — are uniform across hierarchy layers.
//   - Incident trees time out after 15 minutes without new alerts.
//
// # Sharded execution
//
// The main alert tree is partitioned into Config.Workers shards hashed by
// location, so AddBatch and expiry run one goroutine per shard, and the
// per-component type counting of Algorithm 2 fans out one goroutine per
// connected component. Everything order-sensitive — incident ID
// assignment, absorption of smaller incidents, the closed list, the
// ownership tables — stays on the caller's goroutine, so incident sets,
// IDs, and ordering are identical for every worker count.
//
// # Incident ownership
//
// Active incident roots form an antichain, so every location has at most
// one owning incident, found by walking its ancestor chain through the
// per-PathID incAt table — at most seven steps, however many incidents
// are open. Algorithm 1's attach (Add/AddBatch) and Algorithm 2's "is
// this root already covered" test are that walk; incUnder tells generate
// whether a new root has smaller incidents to absorb before it scans for
// them.
//
// # Dense IDs and incremental connectivity
//
// Locations and type keys are interned into dense integer IDs
// (internal/intern) on the caller's goroutine, so every hot structure is
// an int-indexed slice: node lookup, shard routing, ancestor walks, and
// type deduplication never hash a Path or allocate. Connectivity is
// maintained incrementally: node additions eagerly union into a dynamic
// union-find (work proportional to the change, not the tree), node
// expiry marks the forest dirty for a lazy from-scratch re-link at the
// next Check, and a tick where the alerting set did not change reuses
// the cached component partition untouched — a steady-state Check does
// no connectivity work and allocates nothing.
//
// Scratch ownership: every per-ID table and reuse buffer on Locator is
// written only on the caller's goroutine, except slotOf and the
// per-shard slabs, which parallel phases write strictly for the IDs
// their shard owns (shardOfID routes each ID to exactly one shard).
package locator

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
	"skynet/internal/incident"
	"skynet/internal/intern"
	"skynet/internal/par"
	"skynet/internal/provenance"
	"skynet/internal/span"
	"skynet/internal/topology"
)

// Thresholds is the incident-generation rule, written A/B+C/D in the
// paper's Figure 9: an area becomes an incident when it has at least A
// failure types, or at least B failure types and C other types, or at
// least D types of any kind. A zero field disables that clause.
type Thresholds struct {
	FailureOnly  int // A
	ComboFailure int // B
	ComboOther   int // C
	AnyAlerts    int // D
}

// ProductionThresholds is the deployed setting "2/1+2/5" (§6.3).
func ProductionThresholds() Thresholds {
	return Thresholds{FailureOnly: 2, ComboFailure: 1, ComboOther: 2, AnyAlerts: 5}
}

// Crossed reports whether an area with the given distinct failure-type and
// total-type counts qualifies as an incident.
func (t Thresholds) Crossed(failureTypes, allTypes int) bool {
	if t.FailureOnly > 0 && failureTypes >= t.FailureOnly {
		return true
	}
	if t.ComboFailure > 0 && t.ComboOther > 0 &&
		failureTypes >= t.ComboFailure && allTypes-failureTypes >= t.ComboOther {
		return true
	}
	if t.AnyAlerts > 0 && allTypes >= t.AnyAlerts {
		return true
	}
	return false
}

// Clause names the threshold clause the given counts satisfy, in the
// order Crossed evaluates them — the human-readable trigger rule of an
// incident's provenance record. Empty when no clause fires.
func (t Thresholds) Clause(failureTypes, allTypes int) string {
	if t.FailureOnly > 0 && failureTypes >= t.FailureOnly {
		return fmt.Sprintf("failure-only (%d failure types ≥ %d)", failureTypes, t.FailureOnly)
	}
	if t.ComboFailure > 0 && t.ComboOther > 0 &&
		failureTypes >= t.ComboFailure && allTypes-failureTypes >= t.ComboOther {
		return fmt.Sprintf("combo (%d failure ≥ %d and %d other ≥ %d)",
			failureTypes, t.ComboFailure, allTypes-failureTypes, t.ComboOther)
	}
	if t.AnyAlerts > 0 && allTypes >= t.AnyAlerts {
		return fmt.Sprintf("any (%d types ≥ %d)", allTypes, t.AnyAlerts)
	}
	return ""
}

// String renders the Figure 9 notation A/B+C/D.
func (t Thresholds) String() string {
	return fmt.Sprintf("%d/%d+%d/%d", t.FailureOnly, t.ComboFailure, t.ComboOther, t.AnyAlerts)
}

// ParseThresholds parses the Figure 9 notation "A/B+C/D".
func ParseThresholds(s string) (Thresholds, error) {
	var t Thresholds
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return t, fmt.Errorf("locator: threshold %q: want A/B+C/D", s)
	}
	combo := strings.Split(parts[1], "+")
	if len(combo) != 2 {
		return t, fmt.Errorf("locator: threshold %q: middle term must be B+C", s)
	}
	var err error
	if t.FailureOnly, err = strconv.Atoi(parts[0]); err != nil {
		return t, fmt.Errorf("locator: threshold %q: %w", s, err)
	}
	if t.ComboFailure, err = strconv.Atoi(combo[0]); err != nil {
		return t, fmt.Errorf("locator: threshold %q: %w", s, err)
	}
	if t.ComboOther, err = strconv.Atoi(combo[1]); err != nil {
		return t, fmt.Errorf("locator: threshold %q: %w", s, err)
	}
	if t.AnyAlerts, err = strconv.Atoi(parts[2]); err != nil {
		return t, fmt.Errorf("locator: threshold %q: %w", s, err)
	}
	if t.FailureOnly < 0 || t.ComboFailure < 0 || t.ComboOther < 0 || t.AnyAlerts < 0 {
		return t, fmt.Errorf("locator: threshold %q: negative clause", s)
	}
	return t, nil
}

// Config tunes the locator.
type Config struct {
	// NodeTTL is the main-tree alert lifetime (5 minutes, Algorithm 3).
	NodeTTL time.Duration
	// IncidentTTL closes an incident after this long without new alerts
	// (15 minutes, §4.2).
	IncidentTTL time.Duration
	// Thresholds is the incident-generation rule.
	Thresholds Thresholds
	// TypeAndLocation switches to the Figure 9 baseline that counts
	// alerts of the same type at different locations as distinct —
	// shown in the paper to push false positives from <20 % to 70 %.
	TypeAndLocation bool
	// DisableConnectivity turns off topological component scoping (an
	// ablation; the paper's design has it on).
	DisableConnectivity bool
	// Workers bounds the shard fan-out of AddBatch, expiry, and component
	// counting. 0 means GOMAXPROCS; 1 runs fully serial. Incident sets,
	// IDs, and ordering are identical for every setting.
	Workers int
}

// DefaultConfig returns the production parameters.
func DefaultConfig() Config {
	return Config{
		NodeTTL:     5 * time.Minute,
		IncidentTTL: 15 * time.Minute,
		Thresholds:  ProductionThresholds(),
	}
}

// entryArenaChunk is how many entry structs a shard arena allocates at
// once; 128 ≈ 45KB per chunk keeps chunk count low through a flood
// without pinning much idle memory afterwards.
const entryArenaChunk = 128

// entryPtrCap is the arena-backed initial capacity of a node's entries
// slice — locations rarely carry more than a handful of live streams.
const entryPtrCap = 4

// entry is one live (type) stream at one main-tree node.
type entry struct {
	a        alert.Alert
	lastSeen time.Time
	// tid is the interned (source, type) key — what per-component type
	// counting deduplicates on.
	tid intern.TypeID
	// lineage holds the provenance lineages waiting on this stream's fate:
	// attributed when an incident sweeps the node up, expired when the
	// stream ages out (empty when recording is off).
	lineage []uint64
}

// node is one main-tree location node. Entries are keyed per stream
// (source, type, circuit set) — a short linear scan, since a location
// rarely carries more than a handful of live streams — and
// type-deduplicated counting collapses them back to (source, type).
type node struct {
	pid     intern.PathID
	entries []*entry
}

// locShard owns a disjoint, location-hashed subset of the main-tree
// nodes; exactly one goroutine touches a shard per parallel phase. Nodes
// live in a slot slab addressed through Locator.slotOf; freed slots and
// entry structs are recycled so steady-state churn does not allocate.
type locShard struct {
	slots     []node
	free      []int32
	live      []intern.PathID
	entryFree []*entry
	// arena hands out entry structs in bulk chunks: fresh streams during
	// a flood would otherwise hit the allocator one ~350-byte struct at a
	// time (the dominant allocation in BenchmarkLocatorAddCheck). Recycled
	// entries still flow through entryFree first.
	arena []entry
	// ptrArena hands out the initial entries backing for brand-new node
	// slots (recycled slots keep theirs): fixed-cap sub-slices of one
	// bulk allocation, so slot creation never allocates a slice header.
	// The three-index slice caps each node at entryPtrCap; a node with
	// more live streams falls back to a normal append-grow.
	ptrArena []*entry
	// expLin stages lineages of streams deleted by the parallel expiry
	// phase, flushed to the recorder serially.
	expLin []uint64
	// newIDs / remIDs stage node creations and removals from the parallel
	// phases for the serial connectivity update.
	newIDs []intern.PathID
	remIDs []intern.PathID
}

// compCount is one component's distinct-type tally.
type compCount struct{ failureTypes, allTypes int }

// Locator is the streaming §4.2 stage. Add/AddBatch/Check must be called
// from one goroutine (the engine loop); the batch paths internally fan
// out to Config.Workers goroutines.
type Locator struct {
	cfg  Config
	topo *topology.Topology

	workers int
	shards  []locShard

	active []*incident.Incident
	closed []*incident.Incident

	nextID int

	// prov is the optional lineage recorder; nil keeps every provenance
	// branch off the hot path.
	prov *provenance.Recorder

	// scope is the stage seam of the engine's current addbatch or check
	// stage: the fan-outs and the components phase are entered through
	// it. The zero Scope (no tracing, no profiling) makes each a plain
	// call.
	scope span.Scope

	// Dense-ID layer. Interning happens only on the caller's goroutine
	// (Add, or the serial prologue of AddBatch); parallel phases only
	// read the tables.
	pt *intern.PathTable
	tt *intern.TypeTable

	// Per-PathID tables, grown in lockstep with pt by growTables.
	slotOf     []int32         // slot in the owning shard's slab, -1 when no live node
	shardOfID  []int32         // owning shard, hashed once per interned path
	devOf      []int32         // topology.DeviceID, -1 when not a device
	aliveUnder []int32         // live nodes strictly below this path
	ufParent   []intern.PathID // dynamic union-find over live node IDs
	rootGroup  []int32         // regroup scratch: component root -> group index
	rootEpoch  []uint64
	// Incident ownership. Active roots are an antichain — an incident is
	// only created when no active root contains its root, and creation
	// absorbs every active root it contains — so a location has at most
	// one owning incident: the one rooted at its nearest rooted ancestor.
	// Written only by own/disown, where the active set changes.
	incAt    []*incident.Incident // active incident rooted exactly here
	incUnder []int32              // active roots at or below this path

	// pidOfDev maps a topology.DeviceID to its interned path ID (None
	// until the device's path is first interned) — the pre-resolved
	// adjacency bridge, so neighbor joins never touch a Path.
	pidOfDev []intern.PathID

	// Connectivity state. members is the live node IDs in path-sorted
	// order; comps/compIDs cache the current partition, rebuilt only when
	// setChanged and re-linked from scratch only when needRebuild (some
	// node expired — union-find cannot split).
	members     []intern.PathID
	needRebuild bool
	setChanged  bool
	comps       [][]hierarchy.Path
	compIDs     [][]intern.PathID
	compPathBuf []hierarchy.Path
	compIDBuf   []intern.PathID
	memberGroup []int32
	groupSize   []int32
	groupOff    []int32
	groupEpoch  uint64

	// Per-worker type-counting scratch: epoch-tagged dense sets indexed
	// by TypeID, so countTypes allocates nothing.
	seenAll  [][]uint64
	seenFail [][]uint64
	typeMark []uint64

	// Reused per-call buffers.
	linBuf   []uint64
	ownBuf   []*incident.Incident
	pidBuf   []intern.PathID
	tidBuf   []intern.TypeID
	addBuf   []intern.PathID
	countBuf []compCount

	// Prebuilt fan-out closures (built once in New, parameters passed
	// through fields), so the steady-state Check allocates nothing.
	expireNow time.Time
	expireFn  func(s int)
	counts    []compCount
	countFn   func(w, i int)
}

// New builds a locator over a topology. The topology may be nil, which
// implies DisableConnectivity.
func New(cfg Config, topo *topology.Topology) *Locator {
	if topo == nil {
		cfg.DisableConnectivity = true
	}
	workers := par.Workers(cfg.Workers)
	l := &Locator{
		cfg: cfg, topo: topo, workers: workers, shards: make([]locShard, workers),
		pt: intern.NewPathTable(), tt: intern.NewTypeTable(),
		seenAll: make([][]uint64, workers), seenFail: make([][]uint64, workers),
		typeMark: make([]uint64, workers),
	}
	if topo != nil {
		l.pidOfDev = make([]intern.PathID, topo.NumDevices())
		for i := range l.pidOfDev {
			l.pidOfDev[i] = intern.None
		}
	}
	l.expireFn = l.expireShard
	l.countFn = func(w, i int) {
		// A component whose root an active incident already covers is
		// skipped by generate whatever it counts (coverage only grows while
		// generate runs), so it is not counted: the zero tally never
		// crosses. Reads the ownership tables only.
		ids := l.compIDs[i]
		if l.ownerOf(l.commonAncestorID(ids[0], ids[len(ids)-1])) != nil {
			l.counts[i] = compCount{}
			return
		}
		l.counts[i] = l.countTypes(w, ids)
	}
	return l
}

// Workers reports the resolved shard fan-out width.
func (l *Locator) Workers() int { return l.workers }

// EnableProvenance attaches a lineage recorder. Call before the first
// Add; with no recorder the pipeline runs exactly as before.
func (l *Locator) EnableProvenance(rec *provenance.Recorder) { l.prov = rec }

// SetScope installs the stage seam for the next AddBatch/Check: the
// batch fan-out, expiry, components and component-count phases become
// child stages of the scope's owner. The engine refreshes it before
// each of the two calls; it never affects incident output.
func (l *Locator) SetScope(sc span.Scope) { l.scope = sc }

// ShardNodes reports the live main-tree node count of one shard.
func (l *Locator) ShardNodes(i int) int { return len(l.shards[i].live) }

// shardOf routes a location to its owning shard with an FNV-1a hash over
// the path segments — computed once per interned path and cached in
// shardOfID. Routing only affects which goroutine owns the node, never
// the output.
func (l *Locator) shardOf(p hierarchy.Path) int {
	if l.workers == 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 1; i <= p.Depth(); i++ {
		s := p.Segment(hierarchy.Level(i))
		for j := 0; j < len(s); j++ {
			h ^= uint64(s[j])
			h *= prime64
		}
		h ^= 0xff
		h *= prime64
	}
	return int(h % uint64(l.workers))
}

// growTables extends every per-PathID table to cover newly interned
// paths. Caller's goroutine only, never during a parallel phase.
func (l *Locator) growTables() {
	for id := len(l.slotOf); id < l.pt.Len(); id++ {
		pid := intern.PathID(id)
		p := l.pt.Path(pid)
		l.slotOf = append(l.slotOf, -1)
		l.shardOfID = append(l.shardOfID, int32(l.shardOf(p)))
		l.aliveUnder = append(l.aliveUnder, 0)
		l.ufParent = append(l.ufParent, pid)
		l.rootGroup = append(l.rootGroup, 0)
		l.rootEpoch = append(l.rootEpoch, 0)
		l.incAt = append(l.incAt, nil)
		l.incUnder = append(l.incUnder, 0)
		dev := int32(-1)
		if l.topo != nil {
			if d, ok := l.topo.DeviceByPath(p); ok {
				dev = int32(d.ID)
				l.pidOfDev[d.ID] = pid
			}
		}
		l.devOf = append(l.devOf, dev)
	}
}

// nodeByID returns the live node for an ID; the caller must know the
// node is alive (slotOf >= 0).
func (l *Locator) nodeByID(pid intern.PathID) *node {
	return &l.shards[l.shardOfID[pid]].slots[l.slotOf[pid]]
}

// nodeAt looks a location up across the shards (tests and diagnostics).
func (l *Locator) nodeAt(p hierarchy.Path) (*node, bool) {
	pid, ok := l.pt.Lookup(p)
	if !ok || pid >= intern.PathID(len(l.slotOf)) || l.slotOf[pid] < 0 {
		return nil, false
	}
	return l.nodeByID(pid), true
}

// ownerOf returns the active incident whose subtree contains the
// location — the one rooted at the nearest rooted ancestor (self and the
// hierarchy root included) — or nil. At most one exists: active roots are
// an antichain.
func (l *Locator) ownerOf(pid intern.PathID) *incident.Incident {
	for ; pid != intern.None; pid = l.pt.Parent(pid) {
		if in := l.incAt[pid]; in != nil {
			return in
		}
	}
	return nil
}

// own enters a newly created incident, rooted at pid, into the ownership
// tables; disown removes one that was absorbed or closed. Together with
// the l.active edits beside each call they are the only writers.
func (l *Locator) own(in *incident.Incident, pid intern.PathID) {
	l.incAt[pid] = in
	for ; pid != intern.None; pid = l.pt.Parent(pid) {
		l.incUnder[pid]++
	}
}

func (l *Locator) disown(in *incident.Incident) {
	pid, _ := l.pt.Lookup(in.Root)
	l.incAt[pid] = nil
	for ; pid != intern.None; pid = l.pt.Parent(pid) {
		l.incUnder[pid]--
	}
}

// commonAncestorID is Path.CommonAncestor over interned IDs: interning a
// path interns its whole ancestor chain, so the walk never leaves the
// table and meets at the hierarchy root at the latest.
func (l *Locator) commonAncestorID(a, b intern.PathID) intern.PathID {
	for l.pt.Depth(a) > l.pt.Depth(b) {
		a = l.pt.Parent(a)
	}
	for l.pt.Depth(b) > l.pt.Depth(a) {
		b = l.pt.Parent(b)
	}
	for a != b {
		a, b = l.pt.Parent(a), l.pt.Parent(b)
	}
	return a
}

// Add inserts one structured alert — Algorithm 1. The alert joins the
// active incident whose subtree contains its location, if any, and always
// joins the main tree (so incident scopes can still grow).
func (l *Locator) Add(a alert.Alert) { l.addRef(&a) }

// addRef is Add without the argument copy — the serial ingest path.
func (l *Locator) addRef(a *alert.Alert) {
	pid := l.pt.Intern(a.Location)
	tid := l.tt.Intern(alert.TypeKey{Source: a.Source, Type: a.Type})
	if l.pt.Len() > len(l.slotOf) {
		l.growTables()
	}
	owner := l.ownerOf(pid)
	var lid uint64
	if l.prov != nil {
		lid = l.takeLineage(a, owner)
	}
	if owner != nil {
		owner.AddRef(a)
	}
	l.upsert(&l.shards[l.shardOfID[pid]], a, pid, tid, lid)
}

// takeLineage claims the head lineage a structured alert carries and, if
// an active incident owns the alert's location, resolves it attributed
// right away. Returns the lineage still waiting on the main tree, or 0.
func (l *Locator) takeLineage(a *alert.Alert, owner *incident.Incident) uint64 {
	lid := l.prov.TakeEmitted(a.ID)
	if lid == 0 {
		return 0
	}
	if owner != nil {
		l.prov.Attributed(lid, owner.ID)
		return 0
	}
	return lid
}

// AddBatch inserts one tick's structured alerts — Algorithm 1 over a
// batch. The serial prologue interns every location and type key and
// resolves each row's owning incident, so the fan-out below only reads
// the tables. Incident absorption fans out over Workers tasks — task w
// feeds the incidents with ID mod Workers == w, each in batch order —
// while the main-tree shards consolidate theirs (one task per shard);
// both mutations are disjoint, so the result is identical to calling Add
// per alert.
func (l *Locator) AddBatch(batch []alert.Alert) {
	if len(batch) == 0 {
		return
	}
	if l.workers == 1 || len(batch) == 1 {
		for i := range batch {
			l.addRef(&batch[i])
		}
		return
	}
	if cap(l.pidBuf) < len(batch) {
		l.pidBuf = make([]intern.PathID, len(batch))
		l.tidBuf = make([]intern.TypeID, len(batch))
		l.ownBuf = make([]*incident.Incident, len(batch))
	}
	pids := l.pidBuf[:len(batch)]
	tids := l.tidBuf[:len(batch)]
	owners := l.ownBuf[:len(batch)]
	for i := range batch {
		pids[i] = l.pt.Intern(batch[i].Location)
		tids[i] = l.tt.Intern(alert.TypeKey{Source: batch[i].Source, Type: batch[i].Type})
	}
	if l.pt.Len() > len(l.slotOf) {
		l.growTables()
	}
	for i, pid := range pids {
		owners[i] = l.ownerOf(pid)
	}
	// Claim lineages serially before the fan-out: the emitted-map mutation
	// and attribution order must not depend on worker scheduling.
	var lins []uint64
	if l.prov != nil {
		if cap(l.linBuf) < len(batch) {
			l.linBuf = make([]uint64, len(batch))
		}
		lins = l.linBuf[:len(batch)]
		for i := range batch {
			lins[i] = l.takeLineage(&batch[i], owners[i])
		}
	}
	// Fork tasks mix kinds: task < workers absorbs into that task's share
	// of the owning incidents, the rest consolidate one node shard each.
	l.scope.Fork("addbatch_fan", l.workers, l.workers+len(l.shards), func(task int) {
		if task < l.workers {
			for i, in := range owners {
				if in != nil && in.ID%l.workers == task {
					in.AddRef(&batch[i])
				}
			}
			return
		}
		s := int32(task - l.workers)
		shard := &l.shards[s]
		for i := range batch {
			if l.shardOfID[pids[i]] == s {
				var lid uint64
				if lins != nil {
					lid = lins[i]
				}
				l.upsert(shard, &batch[i], pids[i], tids[i], lid)
			}
		}
	})
}

// upsert consolidates one alert into its main-tree node within the owning
// shard. lid is the head lineage still waiting on this stream's fate
// (0 when recording is off or the lineage was already attributed).
func (l *Locator) upsert(shard *locShard, a *alert.Alert, pid intern.PathID, tid intern.TypeID, lid uint64) {
	slot := l.slotOf[pid]
	var n *node
	if slot < 0 {
		if k := len(shard.free); k > 0 {
			slot = shard.free[k-1]
			shard.free = shard.free[:k-1]
		} else {
			shard.slots = append(shard.slots, node{})
			slot = int32(len(shard.slots) - 1)
		}
		n = &shard.slots[slot]
		n.pid = pid
		if n.entries == nil {
			if len(shard.ptrArena) < entryPtrCap {
				shard.ptrArena = make([]*entry, entryPtrCap*entryArenaChunk)
			}
			n.entries = shard.ptrArena[:0:entryPtrCap]
			shard.ptrArena = shard.ptrArena[entryPtrCap:]
		}
		n.entries = n.entries[:0]
		l.slotOf[pid] = slot
		shard.live = append(shard.live, pid)
		shard.newIDs = append(shard.newIDs, pid)
	} else {
		n = &shard.slots[slot]
	}
	for _, e := range n.entries {
		if e.tid == tid && e.a.CircuitSet == a.CircuitSet {
			if a.End.After(e.a.End) {
				e.a.End = a.End
			}
			if a.Value > e.a.Value {
				e.a.Value = a.Value
			}
			e.a.Count += countOf(a)
			if a.Time.After(e.lastSeen) {
				e.lastSeen = a.Time
			}
			if lid != 0 {
				e.lineage = append(e.lineage, lid)
			}
			return
		}
	}
	var e *entry
	if k := len(shard.entryFree); k > 0 {
		e = shard.entryFree[k-1]
		shard.entryFree = shard.entryFree[:k-1]
	} else {
		if len(shard.arena) == 0 {
			shard.arena = make([]entry, entryArenaChunk)
		}
		e = &shard.arena[0]
		shard.arena = shard.arena[1:]
	}
	e.a = *a
	e.a.Count = countOf(a)
	e.lastSeen = a.Time
	e.tid = tid
	e.lineage = e.lineage[:0]
	if lid != 0 {
		e.lineage = append(e.lineage, lid)
	}
	n.entries = append(n.entries, e)
}

func countOf(a *alert.Alert) int {
	if a.Count > 0 {
		return a.Count
	}
	return 1
}

// Check runs Algorithms 2 and 3 at the given time: expires main-tree
// alerts past NodeTTL, closes incidents past IncidentTTL, and generates
// new incident trees for qualifying connected areas. It returns incidents
// newly created during this call.
func (l *Locator) Check(now time.Time) []*incident.Incident {
	l.flushAdds()
	l.expire(now)
	return l.generate(now)
}

// expire implements Algorithm 3: main-tree expiry fans out one task per
// node shard; incident timeout stays serial so the closed list keeps its
// insertion order.
func (l *Locator) expire(now time.Time) {
	l.expireNow = now
	l.scope.Fork("expire", l.workers, len(l.shards), l.expireFn)
	removed := false
	for s := range l.shards {
		sh := &l.shards[s]
		if l.prov != nil {
			for _, lid := range sh.expLin {
				l.prov.Expired(lid)
			}
		}
		sh.expLin = sh.expLin[:0]
		if len(sh.remIDs) > 0 {
			removed = true
			for _, pid := range sh.remIDs {
				for anc := l.pt.Parent(pid); anc != intern.None; anc = l.pt.Parent(anc) {
					l.aliveUnder[anc]--
				}
			}
			sh.remIDs = sh.remIDs[:0]
		}
	}
	if removed {
		// Union-find cannot split, so removals invalidate the forest; keep
		// the sorted member list current and re-link lazily at the next
		// components call.
		keep := l.members[:0]
		for _, pid := range l.members {
			if l.slotOf[pid] >= 0 {
				keep = append(keep, pid)
			}
		}
		l.members = keep
		l.needRebuild = true
		l.setChanged = true
	}
	stillActive := l.active[:0]
	for _, in := range l.active {
		if now.Sub(in.UpdateTime) > l.cfg.IncidentTTL {
			in.Close(in.UpdateTime)
			l.closed = append(l.closed, in)
			l.disown(in)
			if l.prov != nil {
				l.prov.IncidentClosed(in.ID, in.UpdateTime)
			}
		} else {
			stillActive = append(stillActive, in)
		}
	}
	l.active = stillActive
}

// expireShard ages out one shard's streams at l.expireNow — the task
// body of expire's fan-out, prebuilt so the call allocates nothing.
func (l *Locator) expireShard(s int) {
	// lastSeen before the cutoff is now.Sub(lastSeen) > NodeTTL, without
	// Sub's overflow check on every stream of every tick.
	cutoff := l.expireNow.Add(-l.cfg.NodeTTL)
	sh := &l.shards[s]
	sh.expLin = sh.expLin[:0]
	for li := 0; li < len(sh.live); {
		pid := sh.live[li]
		slot := l.slotOf[pid]
		n := &sh.slots[slot]
		keep := n.entries[:0]
		for _, e := range n.entries {
			if e.lastSeen.Before(cutoff) {
				if len(e.lineage) > 0 {
					sh.expLin = append(sh.expLin, e.lineage...)
					e.lineage = e.lineage[:0]
				}
				sh.entryFree = append(sh.entryFree, e)
			} else {
				keep = append(keep, e)
			}
		}
		n.entries = keep
		if len(keep) == 0 {
			l.slotOf[pid] = -1
			sh.free = append(sh.free, slot)
			sh.remIDs = append(sh.remIDs, pid)
			last := len(sh.live) - 1
			sh.live[li] = sh.live[last]
			sh.live = sh.live[:last]
		} else {
			li++
		}
	}
}

// flushAdds folds node creations staged by Add/AddBatch into the
// connectivity state: sorted-merges the new IDs into the member list,
// bumps ancestor live-counts, and eagerly unions each new node with its
// nearest alive ancestor, its alive descendants, and its alive topology
// neighbors — work proportional to the change, never the tree.
func (l *Locator) flushAdds() {
	total := 0
	for s := range l.shards {
		total += len(l.shards[s].newIDs)
	}
	if total == 0 {
		return
	}
	l.setChanged = true
	buf := l.addBuf[:0]
	for s := range l.shards {
		sh := &l.shards[s]
		buf = append(buf, sh.newIDs...)
		sh.newIDs = sh.newIDs[:0]
	}
	l.addBuf = buf
	slices.SortFunc(buf, func(a, b intern.PathID) int {
		return l.pt.Path(a).Compare(l.pt.Path(b))
	})
	for _, pid := range buf {
		for anc := l.pt.Parent(pid); anc != intern.None; anc = l.pt.Parent(anc) {
			l.aliveUnder[anc]++
		}
	}
	l.mergeMembers(buf)
	if l.cfg.DisableConnectivity {
		return
	}
	for _, pid := range buf {
		l.ufParent[pid] = pid
	}
	for _, pid := range buf {
		l.linkNearestAncestor(pid)
		// A node arriving above already-alive descendants must adopt them:
		// they linked past it (or to nothing) when they arrived. The
		// descendants are the contiguous sorted-member run after pid.
		if l.aliveUnder[pid] > 0 {
			p := l.pt.Path(pid)
			i, _ := slices.BinarySearchFunc(l.members, pid, func(a, b intern.PathID) int {
				return l.pt.Path(a).Compare(l.pt.Path(b))
			})
			for j := i + 1; j < len(l.members); j++ {
				if !p.Contains(l.pt.Path(l.members[j])) {
					break
				}
				l.union(pid, l.members[j])
			}
		}
		l.linkNeighbors(pid)
	}
}

// mergeMembers merges the path-sorted new IDs into the path-sorted
// member list in place (back-to-front, like a merge step).
func (l *Locator) mergeMembers(add []intern.PathID) {
	old := len(l.members)
	l.members = append(l.members, add...)
	m := l.members
	i, j := old-1, len(add)-1
	for k := len(m) - 1; j >= 0; k-- {
		if i >= 0 && l.pt.Path(m[i]).Compare(l.pt.Path(add[j])) > 0 {
			m[k] = m[i]
			i--
		} else {
			m[k] = add[j]
			j--
		}
	}
}

// linkNearestAncestor unions a live node with its nearest alive ancestor.
// Chained over all members this connects every alive ancestor relation:
// the nearest alive ancestor's own up-link continues the chain.
func (l *Locator) linkNearestAncestor(pid intern.PathID) {
	for anc := l.pt.Parent(pid); anc != intern.None; anc = l.pt.Parent(anc) {
		if l.slotOf[anc] >= 0 {
			l.union(pid, anc)
			break
		}
	}
}

// linkNeighbors unions a live device node with its alive topology
// neighbors, through the pre-resolved DeviceID -> PathID bridge.
func (l *Locator) linkNeighbors(pid intern.PathID) {
	d := l.devOf[pid]
	if d < 0 {
		return
	}
	for _, nb := range l.topo.Neighbors(topology.DeviceID(d)) {
		np := l.pidOfDev[nb]
		if np != intern.None && l.slotOf[np] >= 0 {
			l.union(pid, np)
		}
	}
}

func (l *Locator) find(x intern.PathID) intern.PathID {
	for l.ufParent[x] != x {
		l.ufParent[x] = l.ufParent[l.ufParent[x]]
		x = l.ufParent[x]
	}
	return x
}

func (l *Locator) union(a, b intern.PathID) {
	ra, rb := l.find(a), l.find(b)
	if ra != rb {
		l.ufParent[rb] = ra
	}
}

// rebuild re-links the union-find from scratch over the current member
// list — the lazy answer to expiry, which union-find cannot express
// incrementally. Up-links alone suffice here: every member links its
// nearest alive ancestor, so no descendant adoption pass is needed.
func (l *Locator) rebuild() {
	for _, pid := range l.members {
		l.ufParent[pid] = pid
	}
	for _, pid := range l.members {
		l.linkNearestAncestor(pid)
		l.linkNeighbors(pid)
	}
}

// components returns the partition of alerting locations into connected
// areas: device locations join via topology adjacency, and any location
// joins its alerting ancestors (an alert at a site node spans everything
// under the site). The partition is cached — a Check where the alerting
// set did not change returns it untouched — and group order matches the
// historical from-scratch algorithm: groups by first-seen member in path
// order, members path-sorted.
func (l *Locator) components() [][]hierarchy.Path {
	if !l.setChanged {
		return l.comps
	}
	n := len(l.members)
	if cap(l.compPathBuf) < n {
		l.compPathBuf = make([]hierarchy.Path, 0, 2*n)
	}
	paths := l.compPathBuf[:n]
	if l.cfg.DisableConnectivity {
		for i, pid := range l.members {
			paths[i] = l.pt.Path(pid)
		}
		l.comps = append(l.comps[:0], paths)
		l.compIDs = append(l.compIDs[:0], l.members)
		l.setChanged = false
		l.needRebuild = false
		return l.comps
	}
	if l.needRebuild {
		l.rebuild()
		l.needRebuild = false
	}
	l.regroup()
	l.setChanged = false
	return l.comps
}

// regroup materializes the cached component lists from the union-find:
// epoch-tagged root scratch maps each component root to a dense group
// index in first-seen member order, then a counting pass carves the
// member list into per-group sub-slices of two reused backing arrays.
func (l *Locator) regroup() {
	n := len(l.members)
	l.groupEpoch++
	if cap(l.memberGroup) < n {
		l.memberGroup = make([]int32, 0, 2*n)
	}
	mg := l.memberGroup[:n]
	ng := int32(0)
	for i, pid := range l.members {
		r := l.find(pid)
		if l.rootEpoch[r] != l.groupEpoch {
			l.rootEpoch[r] = l.groupEpoch
			l.rootGroup[r] = ng
			ng++
		}
		mg[i] = l.rootGroup[r]
	}
	if cap(l.groupSize) < int(ng) {
		l.groupSize = make([]int32, 0, 2*ng)
		l.groupOff = make([]int32, 0, 2*ng)
	}
	sizes := l.groupSize[:ng]
	offs := l.groupOff[:ng]
	for g := range sizes {
		sizes[g] = 0
	}
	for _, g := range mg {
		sizes[g]++
	}
	off := int32(0)
	for g := range sizes {
		offs[g] = off
		off += sizes[g]
	}
	if cap(l.compIDBuf) < n {
		l.compIDBuf = make([]intern.PathID, 0, 2*n)
	}
	ids := l.compIDBuf[:n]
	paths := l.compPathBuf[:n]
	for i, pid := range l.members {
		g := mg[i]
		ids[offs[g]] = pid
		paths[offs[g]] = l.pt.Path(pid)
		offs[g]++
	}
	l.comps = l.comps[:0]
	l.compIDs = l.compIDs[:0]
	start := int32(0)
	for g := int32(0); g < ng; g++ {
		end := start + sizes[g]
		l.comps = append(l.comps, paths[start:end:end])
		l.compIDs = append(l.compIDs, ids[start:end:end])
		start = end
	}
}

// generate implements Algorithm 2 with component scoping. Per-component
// type counting runs in parallel; incident creation — ID assignment and
// absorption — stays serial in component order.
func (l *Locator) generate(now time.Time) []*incident.Incident {
	if len(l.members) == 0 {
		return nil
	}
	cm := l.scope.Enter("components", nil)
	comps := l.components()
	cm.Exit(len(comps))
	if cap(l.countBuf) < len(comps) {
		l.countBuf = make([]compCount, 0, 2*len(comps))
	}
	counts := l.countBuf[:len(comps)]
	l.counts = counts
	l.growTypeScratch()
	l.scope.ForkWorkers("compcount", l.workers, len(comps), l.countFn)
	var created []*incident.Incident
	for ci, comp := range comps {
		if !l.cfg.Thresholds.Crossed(counts[ci].failureTypes, counts[ci].allTypes) {
			continue
		}
		ids := l.compIDs[ci]
		rootID := l.commonAncestorID(ids[0], ids[len(ids)-1])
		if l.ownerOf(rootID) != nil {
			// An active incident already covers (or is rooted exactly at)
			// the candidate root.
			continue
		}
		root := l.pt.Path(rootID)
		in := incident.New(l.nextID, root)
		l.nextID++
		// No active root is at or above rootID, so incUnder counts exactly
		// the smaller incidents to absorb; none (the common case) skips
		// both scans of the active list.
		absorbs := l.incUnder[rootID] > 0
		// Pre-size the incident's entry slab and index for everything it
		// is about to receive — the entries of the active incidents it
		// absorbs plus the component's streams — so the merge and copy
		// below never reallocate either.
		nEntries := 0
		if absorbs {
			for _, old := range l.active {
				if root.Contains(old.Root) {
					nEntries += old.EntryCount()
				}
			}
		}
		for _, pid := range ids {
			nEntries += len(l.nodeByID(pid).entries)
		}
		in.Grow(nEntries)
		// Absorb smaller active incidents inside the new subtree
		// (Algorithm 2, lines 7–9).
		if absorbs {
			remaining := l.active[:0]
			for _, old := range l.active {
				if root.Contains(old.Root) {
					in.Merge(old)
					l.disown(old)
				} else {
					remaining = append(remaining, old)
				}
			}
			l.active = remaining
		}
		if l.prov != nil {
			l.recordCreation(in, now, comp, counts[ci].failureTypes, counts[ci].allTypes)
		}
		// Copy the component's current alerts into the incident tree.
		for _, pid := range ids {
			n := l.nodeByID(pid)
			for _, e := range n.entries {
				in.AddRef(&e.a)
				if l.prov != nil && len(e.lineage) > 0 {
					for _, lid := range e.lineage {
						l.prov.Attributed(lid, in.ID)
					}
					e.lineage = e.lineage[:0]
				}
			}
		}
		l.active = append(l.active, in)
		l.own(in, rootID)
		created = append(created, in)
	}
	slices.SortFunc(created, func(a, b *incident.Incident) int { return a.ID - b.ID })
	return created
}

// growTypeScratch sizes the per-worker epoch sets to the type table.
func (l *Locator) growTypeScratch() {
	nt := l.tt.Len()
	for w := 0; w < l.workers; w++ {
		if len(l.seenAll[w]) < nt {
			l.seenAll[w] = append(l.seenAll[w], make([]uint64, nt-len(l.seenAll[w]))...)
			l.seenFail[w] = append(l.seenFail[w], make([]uint64, nt-len(l.seenFail[w]))...)
		}
	}
}

// provComponentCap bounds the component locations stored on an incident's
// provenance record; the true size is recorded separately.
const provComponentCap = 64

// recordCreation opens the incident's provenance record with the trigger
// decision — which threshold clause fired over which connected component.
func (l *Locator) recordCreation(in *incident.Incident, now time.Time, comp []hierarchy.Path, failureTypes, allTypes int) {
	locs := make([]string, 0, min(len(comp), provComponentCap))
	for _, p := range comp {
		if len(locs) == provComponentCap {
			break
		}
		locs = append(locs, p.String())
	}
	l.prov.IncidentCreated(provenance.IncidentInfo{
		ID:            in.ID,
		Root:          in.Root.String(),
		At:            now,
		Rule:          l.cfg.Thresholds.Clause(failureTypes, allTypes),
		Thresholds:    l.cfg.Thresholds.String(),
		FailureTypes:  failureTypes,
		AllTypes:      allTypes,
		Component:     locs,
		ComponentSize: len(comp),
		MergedFrom:    append([]int(nil), in.MergedFrom...),
	})
}

// countTypes counts distinct failure types and total types over a
// component through worker w's epoch-tagged scratch, honoring the
// TypeAndLocation baseline. Read-only on shared state; safe to run one
// goroutine per component as long as worker indexes are distinct.
func (l *Locator) countTypes(w int, comp []intern.PathID) (c compCount) {
	if l.cfg.TypeAndLocation {
		for _, pid := range comp {
			n := l.nodeByID(pid)
			for _, e := range n.entries {
				switch e.a.Class {
				case alert.ClassFailure:
					c.failureTypes++
					c.allTypes++
				case alert.ClassAbnormal, alert.ClassRootCause:
					c.allTypes++
				}
			}
		}
		return c
	}
	l.typeMark[w]++
	mark := l.typeMark[w]
	seenAll, seenFail := l.seenAll[w], l.seenFail[w]
	for _, pid := range comp {
		n := l.nodeByID(pid)
		for _, e := range n.entries {
			switch e.a.Class {
			case alert.ClassFailure:
				if seenFail[e.tid] != mark {
					seenFail[e.tid] = mark
					c.failureTypes++
				}
				if seenAll[e.tid] != mark {
					seenAll[e.tid] = mark
					c.allTypes++
				}
			case alert.ClassAbnormal, alert.ClassRootCause:
				if seenAll[e.tid] != mark {
					seenAll[e.tid] = mark
					c.allTypes++
				}
			}
		}
	}
	return c
}

// Active returns the open incidents ordered by ID. The slice is a fresh
// copy the caller may reorder or append to; the *incident.Incident
// elements are shared with the locator and must not be mutated.
func (l *Locator) Active() []*incident.Incident {
	return l.ActiveAppend(make([]*incident.Incident, 0, len(l.active)))
}

// ActiveAppend appends the open incidents to dst, oldest first, and
// returns the extended slice — the allocation-free variant of Active for
// per-tick callers that reuse a buffer.
func (l *Locator) ActiveAppend(dst []*incident.Incident) []*incident.Incident {
	n := len(dst)
	dst = append(dst, l.active...)
	slices.SortFunc(dst[n:], func(a, b *incident.Incident) int { return a.ID - b.ID })
	return dst
}

// Closed returns incidents that have timed out, in closing order. Like
// Active, the slice is a fresh copy owned by the caller.
func (l *Locator) Closed() []*incident.Incident {
	out := make([]*incident.Incident, len(l.closed))
	copy(out, l.closed)
	return out
}

// ActiveCount reports the number of open incidents without copying.
func (l *Locator) ActiveCount() int { return len(l.active) }

// ClosedCount reports the number of timed-out incidents without copying.
func (l *Locator) ClosedCount() int { return len(l.closed) }

// ClosedSince returns closed incidents from index i on, in closing order
// — the telemetry layer's incremental view of Algorithm 3's output.
func (l *Locator) ClosedSince(i int) []*incident.Incident {
	if i < 0 {
		i = 0
	}
	if i >= len(l.closed) {
		return nil
	}
	out := make([]*incident.Incident, len(l.closed)-i)
	copy(out, l.closed[i:])
	return out
}

// NodeCount reports the number of live main-tree nodes (for tests and the
// Fig. 8c measurements).
func (l *Locator) NodeCount() int {
	n := 0
	for i := range l.shards {
		n += len(l.shards[i].live)
	}
	return n
}
