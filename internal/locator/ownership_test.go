package locator

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
	"skynet/internal/incident"
	"skynet/internal/intern"
	"skynet/internal/topology"
)

// refLocator is Algorithms 1–3 written the obvious way — a map of
// per-location stream lists, a from-scratch component partition every
// Check, and a linear scan of the active incidents wherever the paper says
// "for each incident" — kept as the oracle the indexed locator must match
// entry for entry. Default Config only (type counting, connectivity on).
type refLocator struct {
	cfg    Config
	topo   *topology.Topology
	nodes  map[hierarchy.Path][]*refStream
	active []*incident.Incident
	closed []*incident.Incident
	nextID int
}

type refStream struct {
	a        alert.Alert
	lastSeen time.Time
}

func newRefLocator(cfg Config, topo *topology.Topology) *refLocator {
	return &refLocator{cfg: cfg, topo: topo, nodes: map[hierarchy.Path][]*refStream{}}
}

// add is Algorithm 1: join every active incident containing the location,
// then consolidate into the main tree.
func (r *refLocator) add(a alert.Alert) {
	for _, in := range r.active {
		if in.Root.Contains(a.Location) {
			in.Add(a)
		}
	}
	for _, s := range r.nodes[a.Location] {
		if s.a.StreamKey() == a.StreamKey() {
			if a.End.After(s.a.End) {
				s.a.End = a.End
			}
			s.a.Value = max(s.a.Value, a.Value)
			s.a.Count += max(a.Count, 1)
			if a.Time.After(s.lastSeen) {
				s.lastSeen = a.Time
			}
			return
		}
	}
	a.Count = max(a.Count, 1)
	r.nodes[a.Location] = append(r.nodes[a.Location], &refStream{a: a, lastSeen: a.Time})
}

// check is Algorithm 3 then Algorithm 2.
func (r *refLocator) check(now time.Time) []*incident.Incident {
	for loc, streams := range r.nodes {
		streams = slices.DeleteFunc(streams, func(s *refStream) bool {
			return now.Sub(s.lastSeen) > r.cfg.NodeTTL
		})
		if len(streams) == 0 {
			delete(r.nodes, loc)
		} else {
			r.nodes[loc] = streams
		}
	}
	var still []*incident.Incident
	for _, in := range r.active {
		if now.Sub(in.UpdateTime) > r.cfg.IncidentTTL {
			in.Close(in.UpdateTime)
			r.closed = append(r.closed, in)
		} else {
			still = append(still, in)
		}
	}
	r.active = still

	var created []*incident.Incident
	for _, comp := range r.components() {
		failure, all := map[alert.TypeKey]bool{}, map[alert.TypeKey]bool{}
		for _, loc := range comp {
			for _, s := range r.nodes[loc] {
				switch s.a.Class {
				case alert.ClassFailure:
					failure[s.a.Key()] = true
					all[s.a.Key()] = true
				case alert.ClassAbnormal, alert.ClassRootCause:
					all[s.a.Key()] = true
				}
			}
		}
		if !r.cfg.Thresholds.Crossed(len(failure), len(all)) {
			continue
		}
		root := comp[0].CommonAncestor(comp[len(comp)-1])
		if slices.ContainsFunc(r.active, func(in *incident.Incident) bool { return in.Root.Contains(root) }) {
			continue
		}
		in := incident.New(r.nextID, root)
		r.nextID++
		var remaining []*incident.Incident
		for _, old := range r.active {
			if root.Contains(old.Root) {
				in.Merge(old)
			} else {
				remaining = append(remaining, old)
			}
		}
		for _, loc := range comp {
			for _, s := range r.nodes[loc] {
				in.Add(s.a)
			}
		}
		r.active = append(remaining, in)
		created = append(created, in)
	}
	return created
}

// components partitions the alerting locations: path-sorted members,
// unioned with every alerting ancestor and adjacent alerting device,
// groups ordered by first member.
func (r *refLocator) components() [][]hierarchy.Path {
	locs := make([]hierarchy.Path, 0, len(r.nodes))
	for p := range r.nodes {
		locs = append(locs, p)
	}
	slices.SortFunc(locs, hierarchy.Path.Compare)
	group := make([]int, len(locs))
	for i := range group {
		group[i] = i
	}
	joined := func(a, b hierarchy.Path) bool {
		return a.Contains(b) || b.Contains(a) || r.topo.Adjacent(a, b)
	}
	// Relabel to a fixed point: quadratic, and obviously a partition into
	// connected areas.
	for changed := true; changed; {
		changed = false
		for i := range locs {
			for j := range locs {
				if group[i] != group[j] && joined(locs[i], locs[j]) {
					group[i], group[j] = min(group[i], group[j]), min(group[i], group[j])
					changed = true
				}
			}
		}
	}
	byGroup := map[int][]hierarchy.Path{}
	var order []int
	for i, p := range locs {
		if _, ok := byGroup[group[i]]; !ok {
			order = append(order, group[i])
		}
		byGroup[group[i]] = append(byGroup[group[i]], p)
	}
	out := make([][]hierarchy.Path, 0, len(order))
	for _, g := range order {
		out = append(out, byGroup[g])
	}
	return out
}

func sameIncident(got, want *incident.Incident) error {
	if got.ID != want.ID || got.Root != want.Root {
		return fmt.Errorf("incident %d@%q, want %d@%q", got.ID, got.Root, want.ID, want.Root)
	}
	if !got.Start.Equal(want.Start) || !got.UpdateTime.Equal(want.UpdateTime) || !got.End.Equal(want.End) {
		return fmt.Errorf("incident %d: times %v/%v/%v, want %v/%v/%v", got.ID,
			got.Start, got.UpdateTime, got.End, want.Start, want.UpdateTime, want.End)
	}
	if !slices.Equal(got.MergedFrom, want.MergedFrom) {
		return fmt.Errorf("incident %d: merged from %v, want %v", got.ID, got.MergedFrom, want.MergedFrom)
	}
	if !slices.Equal(got.EntrySlab(), want.EntrySlab()) {
		return fmt.Errorf("incident %d: entries differ:\n got %+v\nwant %+v", got.ID, got.EntrySlab(), want.EntrySlab())
	}
	return nil
}

func sameIncidents(what string, got, want []*incident.Incident) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d incidents, want %d", what, len(got), len(want))
	}
	for i := range got {
		if err := sameIncident(got[i], want[i]); err != nil {
			return fmt.Errorf("%s[%d]: %w", what, i, err)
		}
	}
	return nil
}

func incName(in *incident.Incident) string {
	if in == nil {
		return "none"
	}
	return fmt.Sprintf("#%d@%q", in.ID, in.Root)
}

// checkOwnership recomputes the ownership tables by linear scan over the
// active list: roots are an antichain, ownerOf is the unique container,
// incAt the incident rooted exactly there, incUnder a recount.
func checkOwnership(l *Locator) error {
	for i, a := range l.active {
		for _, b := range l.active[i+1:] {
			if a.Root.Contains(b.Root) || b.Root.Contains(a.Root) {
				return fmt.Errorf("active roots %q (#%d) and %q (#%d) are comparable", a.Root, a.ID, b.Root, b.ID)
			}
		}
	}
	if len(l.incAt) != l.pt.Len() || len(l.incUnder) != l.pt.Len() {
		return fmt.Errorf("ownership tables cover %d/%d of %d paths", len(l.incAt), len(l.incUnder), l.pt.Len())
	}
	for id := 0; id < l.pt.Len(); id++ {
		pid := intern.PathID(id)
		p := l.pt.Path(pid)
		var owner, at *incident.Incident
		under := int32(0)
		for _, in := range l.active {
			if in.Root.Contains(p) {
				if owner != nil {
					return fmt.Errorf("%q has two containing incidents, #%d and #%d", p, owner.ID, in.ID)
				}
				owner = in
			}
			if in.Root == p {
				at = in
			}
			if p.Contains(in.Root) {
				under++
			}
		}
		if got := l.ownerOf(pid); got != owner {
			return fmt.Errorf("ownerOf(%q) = %s, linear scan says %s", p, incName(got), incName(owner))
		}
		if l.incAt[pid] != at {
			return fmt.Errorf("incAt[%q] = %s, linear scan says %s", p, incName(l.incAt[pid]), incName(at))
		}
		if l.incUnder[pid] != under {
			return fmt.Errorf("incUnder[%q] = %d, recount says %d", p, l.incUnder[pid], under)
		}
	}
	return nil
}

// ownershipOps draws one step of the random op mix over a small pool of
// locations, so steps keep landing on each other: adds at device,
// cluster, site, region and hierarchy-root level (a root-level alert
// joins every component into one whose common ancestor is the hierarchy
// root), and time jumps past NodeTTL/2, NodeTTL and IncidentTTL. It
// returns the batch to add (possibly empty) and the time to Check at.
type ownershipOps struct {
	r    *rand.Rand
	devs []hierarchy.Path
	now  time.Time
	seq  uint64
}

var ownershipTypes = []alert.TypeKey{
	{Source: alert.SourcePing, Type: alert.TypePacketLoss},
	{Source: alert.SourcePing, Type: alert.TypeEndToEndICMP},
	{Source: alert.SourceSyslog, Type: alert.TypeLinkDown},
	{Source: alert.SourceSNMP, Type: alert.TypeTrafficDrop},
	{Source: alert.SourceSNMP, Type: alert.TypeHighCPU},
}

func (o *ownershipOps) alertAt(loc hierarchy.Path, k alert.TypeKey) alert.Alert {
	o.seq++
	at := o.now.Add(time.Duration(o.r.Intn(5)) * time.Second)
	return alert.Alert{
		ID: o.seq, Source: k.Source, Type: k.Type, Class: alert.Classify(k.Source, k.Type),
		Time: at, End: at.Add(time.Duration(o.r.Intn(20)) * time.Second),
		Location: loc, Value: o.r.Float64(), Count: o.r.Intn(3),
	}
}

func (o *ownershipOps) step(cfg Config) []alert.Alert {
	var batch []alert.Alert
	dev := o.devs[o.r.Intn(len(o.devs))]
	switch op := o.r.Intn(20); {
	case op == 0:
		o.now = o.now.Add(cfg.IncidentTTL + time.Minute)
	case op == 1:
		o.now = o.now.Add(cfg.NodeTTL + time.Second)
	case op <= 3:
		o.now = o.now.Add(cfg.NodeTTL / 2)
	case op <= 9:
		// A device crossing the failure-only clause on its own.
		batch = append(batch, o.alertAt(dev, ownershipTypes[0]), o.alertAt(dev, ownershipTypes[1]))
	case op <= 12:
		// Sub-threshold noise on a few devices.
		for n := 1 + o.r.Intn(4); n > 0; n-- {
			d := o.devs[o.r.Intn(len(o.devs))]
			batch = append(batch, o.alertAt(d, ownershipTypes[o.r.Intn(len(ownershipTypes))]))
		}
	default:
		// An alert attributed to an interior location — cluster, site,
		// region, or (depth 0) the hierarchy root — which joins everything
		// alerting beneath it into one component.
		depth := []int{5, 5, 4, 4, 1, 1, 0}[op-13]
		loc := dev
		for loc.Depth() > depth {
			loc = loc.Parent()
		}
		batch = append(batch, o.alertAt(loc, ownershipTypes[o.r.Intn(len(ownershipTypes))]))
	}
	o.now = o.now.Add(time.Duration(1+o.r.Intn(20)) * time.Second)
	return batch
}

// TestOwnershipMatchesLinearReference drives random op sequences through
// the indexed locator at workers {1,2,4,8} and through refLocator, and
// after every Check compares the created, active and closed incidents
// entry for entry and re-derives the ownership tables by linear scan.
func TestOwnershipMatchesLinearReference(t *testing.T) {
	tc := topology.SmallConfig()
	tc.Regions = 2
	topo := topology.MustGenerate(tc)
	// A pool of mutually non-adjacent devices (ToRs only link upward):
	// two per cluster over a few clusters of each region.
	var pool []hierarchy.Path
	perRegion := map[string]int{}
	for _, cl := range topo.Clusters() {
		region := cl.Segment(hierarchy.LevelRegion)
		if perRegion[region] == 3 {
			continue
		}
		perRegion[region]++
		for _, d := range topo.DevicesUnder(cl)[:2] {
			pool = append(pool, topo.Device(d).Path)
		}
	}

	var sawRootRooted, sawMultiAbsorb, sawRecreate, sawNodeExpiry bool
	for _, workers := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 6; seed++ {
			cfg := DefaultConfig()
			cfg.Workers = workers
			l := New(cfg, topo)
			ref := newRefLocator(cfg, topo)
			ops := &ownershipOps{r: rand.New(rand.NewSource(seed)), devs: pool, now: epoch}
			for step := 0; step < 150; step++ {
				batch := ops.step(cfg)
				l.AddBatch(batch)
				for _, a := range batch {
					ref.add(a)
				}
				nodesBefore := l.NodeCount()
				created, want := l.Check(ops.now), ref.check(ops.now)

				err := sameIncidents("created", created, want)
				if err == nil {
					refActive := slices.Clone(ref.active)
					slices.SortFunc(refActive, func(a, b *incident.Incident) int { return a.ID - b.ID })
					err = sameIncidents("active", l.Active(), refActive)
				}
				if err == nil {
					err = sameIncidents("closed", l.Closed(), ref.closed)
				}
				if err == nil && l.NodeCount() != len(ref.nodes) {
					err = fmt.Errorf("%d live nodes, want %d", l.NodeCount(), len(ref.nodes))
				}
				if err == nil {
					err = checkOwnership(l)
				}
				if err != nil {
					t.Fatalf("workers %d seed %d step %d: %v", workers, seed, step, err)
				}

				for _, in := range created {
					sawRootRooted = sawRootRooted || in.Root.IsRoot()
					sawMultiAbsorb = sawMultiAbsorb || len(in.MergedFrom) >= 2
					sawRecreate = sawRecreate || slices.ContainsFunc(ref.closed,
						func(old *incident.Incident) bool { return old.Root == in.Root })
				}
				sawNodeExpiry = sawNodeExpiry || (len(batch) == 0 && l.NodeCount() < nodesBefore)
			}
		}
	}
	// The op mix must actually reach the cases the tables exist for.
	for what, saw := range map[string]bool{
		"an incident rooted at the hierarchy root":    sawRootRooted,
		"an incident absorbing several smaller ones":  sawMultiAbsorb,
		"re-creation at a root whose incident closed": sawRecreate,
		"a NodeTTL expiry":                            sawNodeExpiry,
	} {
		if !saw {
			t.Errorf("op mix never produced %s", what)
		}
	}
}
