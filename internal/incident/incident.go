// Package incident defines SkyNet's central output object: an incident is
// "a set of alerts originating from the same root cause" (§1), grouped by
// time and location, with its alerts organized into the three classes of
// §4.2 and rendered for operators in the Figure 6 report format.
package incident

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
)

// Entry is one aggregated alert stream inside an incident: all alerts of
// one (source, type) at one location.
type Entry struct {
	// Alert is the aggregated view: Time of first observation, End of
	// last, Count of instances, max Value.
	Alert alert.Alert
}

// Incident is a cluster of alerts attributed to one root cause.
type Incident struct {
	// ID is unique within a locator's lifetime.
	ID int
	// Root is the hierarchy node the incident is rooted at.
	Root hierarchy.Path
	// Start is the earliest alert time; End is set when the incident
	// times out (zero while active).
	Start time.Time
	End   time.Time
	// UpdateTime is the latest alert timestamp seen (Algorithm 1's
	// i.updateTime).
	UpdateTime time.Time

	// slab holds the aggregated entries in first-seen order. Entries are
	// only ever appended or updated in place, so slab indices are stable
	// for the incident's lifetime. Pointers into the slab (handed out by
	// the map-shaped views below) stay valid until the next Add/Merge,
	// which may grow the slab and move it.
	//
	// Lookup is two-level: idx maps a location to the head of a chain of
	// slab indices threaded through next (-1 terminated), and Add scans
	// that chain comparing stream keys. A location rarely carries more
	// than a handful of streams, so the scan is short — and keeping the
	// map key to a bare Path (104 bytes) stays under Go's 128-byte
	// inline-key limit, so map inserts don't heap-allocate a key copy
	// the way a (Path, StreamKey) composite did.
	slab []Entry
	next []int32
	idx  map[hierarchy.Path]int32

	// Severity is the evaluator's score y_k (0 until evaluated).
	Severity float64
	// Zoomed is the refined failure location from location zoom-in, or
	// the zero path when zoom-in could not refine.
	Zoomed hierarchy.Path
	// MergedFrom lists incident IDs absorbed into this one as its scope
	// grew.
	MergedFrom []int

	// rev counts content mutations (Add/Merge/Close). The engine's
	// incremental evaluator compares revisions to skip re-refining and
	// re-scoring incidents whose inputs cannot have changed; the memoized
	// views below use it to prove their caches fresh.
	rev uint64

	// Lazily materialized, rev-stamped views. The slab is the source of
	// truth; these exist only for report/explain/JSON surfaces that want
	// the historical map shape. A view built at viewRev==rev is returned
	// as-is on the next call; any mutation invalidates all of them.
	viewRev  uint64
	view     map[hierarchy.Path]map[alert.StreamKey]*Entry
	locsRev  uint64
	locs     []hierarchy.Path
	classRev uint64
	byClass  map[alert.Class]map[alert.Source][]*Entry
}

// Rev returns the mutation revision: it changes whenever Add, Merge, or
// Close alter the incident's content.
func (in *Incident) Rev() uint64 { return in.rev }

// New creates an empty incident. Entry storage is allocated lazily on the
// first Add, so incidents that merge-and-close immediately cost nothing.
func New(id int, root hierarchy.Path) *Incident {
	return &Incident{ID: id, Root: root}
}

// Grow pre-sizes the incident for about n additional entries: one slab
// reservation and one index sized up front instead of a doubling series
// of reallocations. Callers that know the incoming stream count (the
// locator copying a component) use this to keep Add allocation-free.
func (in *Incident) Grow(n int) {
	if n <= 0 {
		return
	}
	if cap(in.slab)-len(in.slab) < n {
		ns := make([]Entry, len(in.slab), len(in.slab)+n)
		copy(ns, in.slab)
		in.slab = ns
	}
	if cap(in.next)-len(in.next) < n {
		nn := make([]int32, len(in.next), len(in.next)+n)
		copy(nn, in.next)
		in.next = nn
	}
	if in.idx == nil {
		in.idx = make(map[hierarchy.Path]int32, len(in.slab)+n)
	}
}

// Active reports whether the incident is still open.
func (in *Incident) Active() bool { return in.End.IsZero() }

// Add merges one alert into the incident, updating Start/UpdateTime and
// the per-location aggregation.
func (in *Incident) Add(a alert.Alert) { in.AddRef(&a) }

// AddRef is Add without the 330-byte argument copy — the hot ingest path.
// The alert is copied into the slab; the pointer is not retained.
func (in *Incident) AddRef(a *alert.Alert) {
	in.rev++
	if in.idx == nil {
		in.idx = make(map[hierarchy.Path]int32, 8)
	}
	head, found := in.idx[a.Location]
	if found {
		for i := head; i >= 0; i = in.next[i] {
			e := &in.slab[i].Alert
			if e.Source != a.Source || e.Type != a.Type || e.CircuitSet != a.CircuitSet {
				continue
			}
			if a.End.After(e.End) {
				e.End = a.End
			}
			if a.Time.Before(e.Time) {
				e.Time = a.Time
			}
			if a.Value > e.Value {
				e.Value = a.Value
			}
			e.Count += max(a.Count, 1)
			in.bumpTimes(a)
			return
		}
	}
	// New stream: append to the slab and push onto the location's chain
	// (chain order does not matter — slab order stays first-seen).
	i := int32(len(in.slab))
	in.slab = append(in.slab, Entry{Alert: *a})
	if a.Count <= 0 {
		in.slab[i].Alert.Count = 1
	}
	if found {
		in.next = append(in.next, head)
	} else {
		in.next = append(in.next, -1)
	}
	in.idx[a.Location] = i
	in.bumpTimes(a)
}

// bumpTimes folds one alert's timestamps into Start/UpdateTime.
func (in *Incident) bumpTimes(a *alert.Alert) {
	if in.Start.IsZero() || a.Time.Before(in.Start) {
		in.Start = a.Time
	}
	last := a.Time
	if a.End.After(last) {
		last = a.End
	}
	if last.After(in.UpdateTime) {
		in.UpdateTime = last
	}
}

// Merge absorbs all entries of another incident.
func (in *Incident) Merge(other *Incident) {
	for i := range other.slab {
		in.AddRef(&other.slab[i].Alert)
	}
	in.MergedFrom = append(in.MergedFrom, other.ID)
	in.MergedFrom = append(in.MergedFrom, other.MergedFrom...)
}

// Close marks the incident ended at the given time.
func (in *Incident) Close(at time.Time) {
	if in.End.IsZero() {
		in.End = at
		in.rev++
	}
}

// EntrySlab returns the incident's aggregated entries in first-seen
// order. This is the allocation-free view for hot readers (evaluator,
// zoom-in): iterate by index, do not mutate, and do not retain the slice
// across a mutation (Add/Merge may grow and move it).
func (in *Incident) EntrySlab() []Entry { return in.slab }

// EntryCount returns the number of distinct aggregated streams.
func (in *Incident) EntryCount() int { return len(in.slab) }

// Entries materializes the historical map shape: location → stream key
// (source, type, circuit set) → aggregated entry. The map is built
// lazily and memoized against the revision counter, so repeated calls on
// an unchanged incident are free. Callers must treat the result as
// read-only; it is shared and invalidated by the next mutation.
func (in *Incident) Entries() map[hierarchy.Path]map[alert.StreamKey]*Entry {
	if in.view != nil && in.viewRev == in.rev {
		return in.view
	}
	view := make(map[hierarchy.Path]map[alert.StreamKey]*Entry)
	for i := range in.slab {
		e := &in.slab[i]
		locEntries, ok := view[e.Alert.Location]
		if !ok {
			locEntries = make(map[alert.StreamKey]*Entry)
			view[e.Alert.Location] = locEntries
		}
		locEntries[e.Alert.StreamKey()] = e
	}
	in.view, in.viewRev = view, in.rev
	return view
}

// Locations returns the alerting locations inside the incident, sorted.
// The slice is memoized against the revision counter and shared: callers
// must not modify it.
func (in *Incident) Locations() []hierarchy.Path {
	if in.locs != nil && in.locsRev == in.rev {
		return in.locs
	}
	out := make([]hierarchy.Path, 0, len(in.slab))
	for i := range in.slab {
		out = append(out, in.slab[i].Alert.Location)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	// Dedupe in place: distinct streams share locations.
	w := 0
	for i := range out {
		if i == 0 || out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	in.locs, in.locsRev = out[:w], in.rev
	return in.locs
}

// LocationCount returns the number of distinct alerting locations.
// O(1): idx is keyed by location and entries are never removed, so its
// size is exactly the distinct-location count — no need to materialize
// the sorted Locations view (which costs O(slab log slab) per revision,
// far too much for per-tick surfaces like the fan-out delta).
func (in *Incident) LocationCount() int { return len(in.idx) }

// TypeCount returns the number of distinct (source, type) pairs of the
// given class across the incident — the deduplicated counting unit of
// §4.2.
func (in *Incident) TypeCount(c alert.Class) int {
	seen := map[alert.TypeKey]bool{}
	for i := range in.slab {
		a := &in.slab[i].Alert
		if a.Class == c {
			seen[alert.TypeKey{Source: a.Source, Type: a.Type}] = true
		}
	}
	return len(seen)
}

// AlertCount returns the total number of raw alert instances aggregated.
func (in *Incident) AlertCount() int {
	n := 0
	for i := range in.slab {
		n += in.slab[i].Alert.Count
	}
	return n
}

// EntriesByClass groups aggregated entries of one class by source, each
// source's entries sorted by type — the structure of the Figure 6 report.
// Results are memoized against the revision counter and shared: callers
// must treat them as read-only.
func (in *Incident) EntriesByClass(c alert.Class) map[alert.Source][]*Entry {
	if in.byClass != nil && in.classRev == in.rev {
		if out, ok := in.byClass[c]; ok {
			return out
		}
	} else {
		in.byClass = make(map[alert.Class]map[alert.Source][]*Entry, 3)
		in.classRev = in.rev
	}
	out := make(map[alert.Source][]*Entry)
	for i := range in.slab {
		e := &in.slab[i]
		if e.Alert.Class == c {
			out[e.Alert.Source] = append(out[e.Alert.Source], e)
		}
	}
	for _, entries := range out {
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].Alert.Type != entries[j].Alert.Type {
				return entries[i].Alert.Type < entries[j].Alert.Type
			}
			return entries[i].Alert.Location.Compare(entries[j].Alert.Location) < 0
		})
	}
	in.byClass[c] = out
	return out
}

// Render produces the operator-facing report in the Figure 6 layout:
//
//	Incident 1:
//	[Region A|City a|Logic site 2][11:45:11 - 11:48:10] severity=60.0
//	Failure alerts
//	  ping
//	  |- end to end icmp (3)
//	  └- packet loss (5)
//	...
func (in *Incident) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Incident %d:\n", in.ID)
	end := in.UpdateTime
	if !in.End.IsZero() {
		end = in.End
	}
	fmt.Fprintf(&b, "[%s][%s - %s]", in.Root, in.Start.Format(time.TimeOnly), end.Format(time.TimeOnly))
	if in.Severity > 0 {
		fmt.Fprintf(&b, " severity=%.1f", in.Severity)
	}
	if !in.Zoomed.IsRoot() && in.Zoomed != in.Root {
		fmt.Fprintf(&b, " zoomed=%s", in.Zoomed)
	}
	b.WriteByte('\n')
	sections := []struct {
		title string
		class alert.Class
	}{
		{"Failure alerts", alert.ClassFailure},
		{"Abnormal alerts", alert.ClassAbnormal},
		{"Root cause alerts", alert.ClassRootCause},
	}
	for _, sec := range sections {
		grouped := in.EntriesByClass(sec.class)
		if len(grouped) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s\n", sec.title)
		srcs := make([]alert.Source, 0, len(grouped))
		for s := range grouped {
			srcs = append(srcs, s)
		}
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		for _, s := range srcs {
			fmt.Fprintf(&b, "  %s\n", s)
			entries := grouped[s]
			// Collapse per-type across locations for display counts.
			type agg struct {
				typ   string
				count int
			}
			var rows []agg
			idx := map[string]int{}
			for _, e := range entries {
				if i, ok := idx[e.Alert.Type]; ok {
					rows[i].count += e.Alert.Count
				} else {
					idx[e.Alert.Type] = len(rows)
					rows = append(rows, agg{e.Alert.Type, e.Alert.Count})
				}
			}
			for i, r := range rows {
				branch := "|-"
				if i == len(rows)-1 {
					branch = "└-"
				}
				fmt.Fprintf(&b, "  %s %s (%d)\n", branch, r.typ, r.count)
			}
		}
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
