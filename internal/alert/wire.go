package alert

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"skynet/internal/hierarchy"
)

// Helpers for the compact wire format. Kept separate from codec.go so the
// escaping rules are reviewable in one place.

// wireLocSep replaces hierarchy.Sep inside wire location fields, because
// "|" is the wire field delimiter.
const wireLocSep = '/'

// parseWireLoc parses a "/"-separated wire location by slicing segments
// out of s in place — the substrings share s's backing, so a well-formed
// location costs no allocation beyond the field's string conversion.
func parseWireLoc(s string) (hierarchy.Path, error) {
	if s == "" {
		return hierarchy.Root(), nil
	}
	orig := s
	var segs [hierarchy.NumLevels]string
	n := 0
	for {
		i := strings.IndexByte(s, wireLocSep)
		if n == len(segs) {
			// Too deep; let hierarchy report it the canonical way.
			return hierarchy.Parse(strings.ReplaceAll(orig, string(wireLocSep), hierarchy.Sep))
		}
		if i < 0 {
			segs[n] = s
			n++
			break
		}
		segs[n] = s[:i]
		n++
		s = s[i+1:]
	}
	return hierarchy.New(segs[:n]...)
}

// wireEscaper makes free-text fields safe for the pipe-delimited format:
// "|" and newlines are replaced with visually similar characters rather
// than escaped, so the decoder takes every field as it stands.
var wireEscaper = strings.NewReplacer("|", "¦", "\n", " ", "\r", " ")

func escapeWire(s string) string {
	if !strings.ContainsAny(s, "|\n\r") {
		return s
	}
	return wireEscaper.Replace(s)
}

// parseSourceBytes is ParseSource without the string materialization:
// the comparison against each known name is allocation-free, so a
// decoder calling it in a hot loop costs nothing on the happy path.
func parseSourceBytes(b []byte) (Source, error) {
	for i, n := range sourceNames {
		if string(b) == n && Source(i) != SourceUnknown {
			return Source(i), nil
		}
	}
	return SourceUnknown, fmt.Errorf("alert: unknown source %q", b)
}

// parseClassBytes is ParseClass without the string materialization.
func parseClassBytes(b []byte) (Class, error) {
	for i, n := range classNames {
		if string(b) == n {
			return Class(i), nil
		}
	}
	return ClassInfo, fmt.Errorf("alert: unknown class %q", b)
}

// wireScratchMaxEntries caps each WireScratch cache; hostile or
// unbounded-cardinality input resets a full cache instead of growing it
// forever.
const wireScratchMaxEntries = 1 << 16

// WireScratch is a caller-owned decode cache for both line formats.
// Alert streams are massively repetitive — the same few dozen type
// names, locations, and (during a flood) even raw lines recur on every
// line — so the scratch interns decoded strings and parsed locations
// keyed by their bytes on the wire. A cache hit costs a map lookup and
// zero allocations; only the first sighting of a value pays the string
// materialization the reused socket buffer forces. Not safe for
// concurrent use: each reader goroutine owns one.
type WireScratch struct {
	strs map[string]string
	// Locations are cached per text form: "a/b" is two segments in the
	// pipe format and one in JSON, where "|" separates.
	wireLocs map[string]hierarchy.Path
	jsonLocs map[string]hierarchy.Path
	// unquoted holds the JSON string being unescaped.
	unquoted []byte
}

// str returns the interned copy of b.
func (sc *WireScratch) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if v, ok := sc.strs[string(b)]; ok {
		return v
	}
	if sc.strs == nil || len(sc.strs) >= wireScratchMaxEntries {
		sc.strs = make(map[string]string, 64)
	}
	v := string(b)
	sc.strs[v] = v
	return v
}

// cachedLoc returns the location whose text form is b, parsing it on
// first sight and remembering it in *cache.
func cachedLoc(cache *map[string]hierarchy.Path, b []byte, parse func(string) (hierarchy.Path, error)) (hierarchy.Path, error) {
	if len(b) == 0 {
		return hierarchy.Root(), nil
	}
	if p, ok := (*cache)[string(b)]; ok {
		return p, nil
	}
	text := string(b)
	p, err := parse(text)
	if err != nil {
		return p, err
	}
	if *cache == nil || len(*cache) >= wireScratchMaxEntries {
		*cache = make(map[string]hierarchy.Path, 64)
	}
	(*cache)[text] = p
	return p, nil
}

// wireString materializes a free-text field, through the scratch cache
// when one is supplied.
func wireString(b []byte, sc *WireScratch) string {
	if sc != nil {
		return sc.str(b)
	}
	return string(b)
}

// wireLoc parses a "/"-separated location field, through the scratch
// cache when one is supplied.
func wireLoc(b []byte, sc *WireScratch) (hierarchy.Path, error) {
	if sc != nil {
		return cachedLoc(&sc.wireLocs, b, parseWireLoc)
	}
	return parseWireLoc(string(b))
}

// jsonLoc is wireLoc for the JSON form, hierarchy.Path's text encoding.
func jsonLoc(b []byte, sc *WireScratch) (hierarchy.Path, error) {
	if sc != nil {
		return cachedLoc(&sc.jsonLocs, b, hierarchy.Parse)
	}
	return hierarchy.Parse(string(b))
}

func appendInt(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

func parseInt(b []byte) (int64, error) { return strconv.ParseInt(string(b), 10, 64) }

func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

func parseFloat(b []byte) (float64, error) {
	if len(b) == 0 {
		return 0, nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return 0, fmt.Errorf("parse float %q: %w", b, err)
	}
	return v, nil
}

// unixNano converts nanoseconds to a time.Time, mapping the sentinel
// value of the zero time back to a zero time.
func unixNano(n int64) time.Time {
	if n == zeroUnixNano {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// zeroUnixNano is what time.Time{}.UnixNano() yields; used to round-trip
// unset timestamps through the wire format.
var zeroUnixNano = time.Time{}.UnixNano()
