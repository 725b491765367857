// Feed shapes: the snapshot and delta documents the serving layer
// publishes once per engine tick. Both are encoded exactly once — by
// appendJSON below, reflection-free into a pooled buffer — and fanned
// out to every subscriber as a shared refcounted frame. The JSON field
// names mirror status.IncidentSummary so dashboard code can reuse its
// decoders.

package fanout

import (
	"time"

	"skynet/internal/hierarchy"
	"skynet/internal/incident"
)

// IncidentInfo is one incident's row in a snapshot or delta. Locations
// stay as hierarchy.Path values so building a row never allocates; the
// canonical "|"-joined form is rendered at encode time.
type IncidentInfo struct {
	ID        int
	Root      hierarchy.Path
	Zoomed    hierarchy.Path
	Severity  float64
	Active    bool
	Alerts    int
	Locations int
	Start     time.Time
	Update    time.Time
	End       time.Time
}

// NewIncidentInfo captures the feed view of one incident.
func NewIncidentInfo(in *incident.Incident) IncidentInfo {
	return IncidentInfo{
		ID:        in.ID,
		Root:      in.Root,
		Zoomed:    in.Zoomed,
		Severity:  in.Severity,
		Active:    in.Active(),
		Alerts:    in.AlertCount(),
		Locations: in.LocationCount(),
		Start:     in.Start,
		Update:    in.UpdateTime,
		End:       in.End,
	}
}

// FeedSnapshot is the full incident-feed state as of one tick: what a
// fresh or resyncing subscriber needs to render a dashboard from
// nothing. Incidents are the active set in ID order (deterministic
// across worker counts).
type FeedSnapshot struct {
	Tick         uint64
	Time         time.Time
	RawTotal     int
	Structured   int // structured alerts produced by this tick
	ClosedTotal  int
	FloodPhase   string // "" when no flood detector is attached or idle
	FloodEpisode uint64
	SLOFiring    int
	Incidents    []IncidentInfo
}

// FeedDelta is what changed during one tick (or, after coalescing, a
// contiguous run of ticks): incidents opened, updated (re-scored or
// re-zoomed), and closed, plus the flood phase and SLO burn state.
type FeedDelta struct {
	Tick     uint64
	FromTick uint64 // == Tick for a raw delta; < Tick after a merge
	Time     time.Time
	// Structured sums the structured alerts of the covered ticks.
	Structured   int
	Opened       []IncidentInfo
	Updated      []IncidentInfo
	Closed       []IncidentInfo
	FloodPhase   string
	FloodEpisode uint64
	SLOFiring    int
	// Coalesced counts the raw deltas merged into this one (1 for an
	// unmerged delta).
	Coalesced int
}

// reset empties s for reuse, keeping slice capacity.
func (s *FeedSnapshot) reset() {
	s.Incidents = s.Incidents[:0]
	*s = FeedSnapshot{Incidents: s.Incidents}
}

// reset empties d for reuse, keeping slice capacity.
func (d *FeedDelta) reset() {
	d.Opened = d.Opened[:0]
	d.Updated = d.Updated[:0]
	d.Closed = d.Closed[:0]
	*d = FeedDelta{Opened: d.Opened, Updated: d.Updated, Closed: d.Closed}
}

// copyFrom deep-copies src into d (reusing d's slice capacity): the
// start of a subscriber's coalescing merge, which must leave the ring's
// frames immutable.
func (d *FeedDelta) copyFrom(src *FeedDelta) {
	opened, updated, closed := d.Opened[:0], d.Updated[:0], d.Closed[:0]
	*d = *src
	d.Opened = append(opened, src.Opened...)
	d.Updated = append(updated, src.Updated...)
	d.Closed = append(closed, src.Closed...)
}

// mergeDelta folds a newer delta (src) into an accumulating one (dst).
// Rules: an incident that opened in the window and then updated stays
// "opened" with the newest row; one that opened and closed inside the
// window is reported only as closed (the subscriber never saw it open);
// updates collapse to the newest row. Counts (Structured, Coalesced)
// sum; phase/SLO state comes from the newest delta. Output lists stay in
// ascending-ID order, so a merged delta is bit-identical regardless of
// which subscriber built it.
func mergeDelta(dst, src *FeedDelta) {
	dst.Structured += src.Structured
	dst.Coalesced += src.Coalesced
	dst.Tick = src.Tick
	dst.Time = src.Time
	dst.FloodPhase = src.FloodPhase
	dst.FloodEpisode = src.FloodEpisode
	dst.SLOFiring = src.SLOFiring

	for i := range src.Opened {
		dst.Opened = upsertInfo(dst.Opened, &src.Opened[i])
	}
	for i := range src.Updated {
		// An update supersedes the opened row when the open happened
		// inside the merge window; otherwise it is an update.
		if j := findInfo(dst.Opened, src.Updated[i].ID); j >= 0 {
			dst.Opened[j] = src.Updated[i]
			continue
		}
		dst.Updated = upsertInfo(dst.Updated, &src.Updated[i])
	}
	for i := range src.Closed {
		id := src.Closed[i].ID
		if j := findInfo(dst.Opened, id); j >= 0 {
			dst.Opened = append(dst.Opened[:j], dst.Opened[j+1:]...)
		}
		if j := findInfo(dst.Updated, id); j >= 0 {
			dst.Updated = append(dst.Updated[:j], dst.Updated[j+1:]...)
		}
		dst.Closed = upsertInfo(dst.Closed, &src.Closed[i])
	}
}

// findInfo locates id in an ID-sorted info list (-1 when absent).
func findInfo(list []IncidentInfo, id int) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo].ID == id {
		return lo
	}
	return -1
}

// upsertInfo inserts or replaces info in an ID-sorted list.
func upsertInfo(list []IncidentInfo, info *IncidentInfo) []IncidentInfo {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid].ID < info.ID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo].ID == info.ID {
		list[lo] = *info
		return list
	}
	list = append(list, IncidentInfo{})
	copy(list[lo+1:], list[lo:])
	list[lo] = *info
	return list
}

// --- reflection-free JSON encoding -----------------------------------

// appendJSONString appends s as a JSON string literal. The feed's
// strings (hierarchy segments, flood phases) are plain ASCII, but the
// escaper is complete for control characters, quotes, and backslashes
// so hostile alert content can never tear a frame.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONPath appends a hierarchy path as a JSON string in its
// canonical "|"-joined form without materializing the string.
func appendJSONPath(dst []byte, p hierarchy.Path) []byte {
	dst = append(dst, '"')
	// Path segments are operator-controlled identifiers, but escape
	// anyway — segment-wise, via Segment (Segments() would copy).
	for l := 1; l <= p.Depth(); l++ {
		if l > 1 {
			dst = append(dst, '|')
		}
		dst = appendJSONStringBody(dst, p.Segment(hierarchy.Level(l)))
	}
	return append(dst, '"')
}

// appendJSONStringBody escapes s without the surrounding quotes.
func appendJSONStringBody(dst []byte, s string) []byte {
	quoted := appendJSONString(dst, s)
	// Drop the quotes appendJSONString added: move the body left over
	// the opening quote and trim the closing one.
	body := quoted[len(dst)+1 : len(quoted)-1]
	copy(quoted[len(dst):], body)
	return quoted[:len(dst)+len(body)]
}

func appendJSONTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}

func appendUint(dst []byte, v uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(dst, tmp[i:]...)
}

func appendInt(dst []byte, v int64) []byte {
	if v < 0 {
		dst = append(dst, '-')
		return appendUint(dst, uint64(-v))
	}
	return appendUint(dst, uint64(v))
}

// appendFloat renders severity-style floats with fixed 4-digit
// precision — stable, short, and enough for a dashboard.
func appendFloat(dst []byte, v float64) []byte {
	if v < 0 {
		dst = append(dst, '-')
		v = -v
	}
	scaled := uint64(v*10000 + 0.5)
	dst = appendUint(dst, scaled/10000)
	frac := scaled % 10000
	if frac == 0 {
		return dst
	}
	dst = append(dst, '.')
	digits := []byte{byte('0' + frac/1000), byte('0' + frac/100%10), byte('0' + frac/10%10), byte('0' + frac%10)}
	for len(digits) > 1 && digits[len(digits)-1] == '0' {
		digits = digits[:len(digits)-1]
	}
	return append(dst, digits...)
}

func appendIncidentInfo(dst []byte, in *IncidentInfo) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendInt(dst, int64(in.ID))
	dst = append(dst, `,"root":`...)
	dst = appendJSONPath(dst, in.Root)
	if !in.Zoomed.IsRoot() && in.Zoomed != in.Root {
		dst = append(dst, `,"zoomed":`...)
		dst = appendJSONPath(dst, in.Zoomed)
	}
	dst = append(dst, `,"severity":`...)
	dst = appendFloat(dst, in.Severity)
	dst = append(dst, `,"active":`...)
	if in.Active {
		dst = append(dst, "true"...)
	} else {
		dst = append(dst, "false"...)
	}
	dst = append(dst, `,"alert_count":`...)
	dst = appendInt(dst, int64(in.Alerts))
	dst = append(dst, `,"locations":`...)
	dst = appendInt(dst, int64(in.Locations))
	dst = append(dst, `,"start":`...)
	dst = appendJSONTime(dst, in.Start)
	dst = append(dst, `,"update_time":`...)
	dst = appendJSONTime(dst, in.Update)
	if !in.End.IsZero() {
		dst = append(dst, `,"end":`...)
		dst = appendJSONTime(dst, in.End)
	}
	return append(dst, '}')
}

func appendInfoList(dst []byte, key string, list []IncidentInfo) []byte {
	if len(list) == 0 {
		return dst
	}
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	dst = append(dst, `":[`...)
	for i := range list {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendIncidentInfo(dst, &list[i])
	}
	return append(dst, ']')
}

// appendJSON renders the snapshot document. pubNanos > 0 adds the
// wall-clock publish stamp (daemon mode; deterministic replays leave it
// off so frames stay bit-identical across runs).
func (s *FeedSnapshot) appendJSON(dst []byte, pubNanos int64) []byte {
	dst = append(dst, `{"tick":`...)
	dst = appendUint(dst, s.Tick)
	dst = append(dst, `,"time":`...)
	dst = appendJSONTime(dst, s.Time)
	dst = append(dst, `,"raw_total":`...)
	dst = appendInt(dst, int64(s.RawTotal))
	dst = append(dst, `,"structured":`...)
	dst = appendInt(dst, int64(s.Structured))
	dst = append(dst, `,"closed_total":`...)
	dst = appendInt(dst, int64(s.ClosedTotal))
	if s.FloodPhase != "" {
		dst = append(dst, `,"flood_phase":`...)
		dst = appendJSONString(dst, s.FloodPhase)
		dst = append(dst, `,"flood_episode":`...)
		dst = appendUint(dst, s.FloodEpisode)
	}
	dst = append(dst, `,"slo_firing":`...)
	dst = appendInt(dst, int64(s.SLOFiring))
	if pubNanos > 0 {
		dst = append(dst, `,"pub_unix_ns":`...)
		dst = appendInt(dst, pubNanos)
	}
	dst = append(dst, `,"incidents":[`...)
	for i := range s.Incidents {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendIncidentInfo(dst, &s.Incidents[i])
	}
	return append(dst, ']', '}')
}

// appendJSON renders the delta document.
func (d *FeedDelta) appendJSON(dst []byte, pubNanos int64) []byte {
	dst = append(dst, `{"tick":`...)
	dst = appendUint(dst, d.Tick)
	if d.FromTick != 0 && d.FromTick != d.Tick {
		dst = append(dst, `,"from_tick":`...)
		dst = appendUint(dst, d.FromTick)
	}
	dst = append(dst, `,"time":`...)
	dst = appendJSONTime(dst, d.Time)
	dst = append(dst, `,"structured":`...)
	dst = appendInt(dst, int64(d.Structured))
	if d.FloodPhase != "" {
		dst = append(dst, `,"flood_phase":`...)
		dst = appendJSONString(dst, d.FloodPhase)
		dst = append(dst, `,"flood_episode":`...)
		dst = appendUint(dst, d.FloodEpisode)
	}
	dst = append(dst, `,"slo_firing":`...)
	dst = appendInt(dst, int64(d.SLOFiring))
	if d.Coalesced > 1 {
		dst = append(dst, `,"coalesced":`...)
		dst = appendInt(dst, int64(d.Coalesced))
	}
	if pubNanos > 0 {
		dst = append(dst, `,"pub_unix_ns":`...)
		dst = appendInt(dst, pubNanos)
	}
	dst = appendInfoList(dst, "opened", d.Opened)
	dst = appendInfoList(dst, "updated", d.Updated)
	dst = appendInfoList(dst, "closed", d.Closed)
	return append(dst, '}')
}
