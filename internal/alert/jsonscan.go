package alert

import (
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the one JSON Lines decoder: a scanner for exactly the
// object json.Marshal(Alert) writes, decoding a line's members straight
// into batch columns.
//
// Contract. For any input, AppendJSON accepts if and only if
// json.Unmarshal into a zero Alert accepts, and then every column of the
// new row equals the corresponding Alert field (timestamps by
// time.Time.Equal; "id" has no column and is dropped, Decoder.Decode
// keeps it). There is no input class the scanner rejects and the oracle
// accepts; FuzzJSONBatchDecode holds both directions. That covers the
// corners encoding/json defines, each pinned in json_test.go:
//
//   - member names match exactly or, failing that, under encoding/json's
//     case folding ("Source", "TYPE", "ſource"); unknown names are skipped
//     with their value, however nested, up to the oracle's depth limit;
//   - a duplicate member overwrites the earlier one; null leaves the field
//     as it is, and a top-level null decodes to the zero row;
//   - strings are unquoted as the oracle does (escapes, surrogate pairs,
//     U+FFFD for lone surrogates and invalid UTF-8) — except timestamps,
//     which time.Time.UnmarshalJSON reads without unescaping and which
//     are handed to that very method, so the accepted timestamp set is
//     the oracle's by construction;
//   - numbers must match the JSON grammar; "count" and "id" must also
//     parse as integers (1.5 and 1e3 are rejected), "value" must be in
//     float64 range;
//   - any other value type for a known member, and any syntax error or
//     trailing text anywhere in the line, rejects the line.
//
// A rejected line leaves the batch as it was, and no column aliases the
// input: strings are materialized (through the scratch's intern caches
// when one is given), so line may be a reused socket buffer.

// jsonMaxDepth is encoding/json's nesting limit; deeper input is a syntax
// error there and here.
const jsonMaxDepth = 10000

var (
	errJSONSyntax = errors.New("alert: json: syntax error")
	errJSONDepth  = errors.New("alert: json: exceeded max depth")
)

// jsonField names a member of the alert object.
type jsonField uint8

const (
	jfUnknown jsonField = iota
	jfID
	jfSource
	jfType
	jfClass
	jfTime
	jfEnd
	jfLocation
	jfPeer
	jfValue
	jfCount
	jfCircuitSet
	jfRaw
)

// jsonFoldedNames are the member names under encoding/json's folding,
// for the fallback match.
var jsonFoldedNames = [...]string{
	jfID: "ID", jfSource: "SOURCE", jfType: "TYPE", jfClass: "CLASS",
	jfTime: "TIME", jfEnd: "END", jfLocation: "LOCATION", jfPeer: "PEER",
	jfValue: "VALUE", jfCount: "COUNT", jfCircuitSet: "CIRCUITSET", jfRaw: "RAW",
}

// jsonFieldOf resolves an unquoted member name the way encoding/json
// does: exact match first, then equality under case folding.
func jsonFieldOf(name []byte) jsonField {
	switch string(name) {
	case "id":
		return jfID
	case "source":
		return jfSource
	case "type":
		return jfType
	case "class":
		return jfClass
	case "time":
		return jfTime
	case "end":
		return jfEnd
	case "location":
		return jfLocation
	case "peer":
		return jfPeer
	case "value":
		return jfValue
	case "count":
		return jfCount
	case "circuitset":
		return jfCircuitSet
	case "raw":
		return jfRaw
	}
	// Folding never lengthens a name and shortens a rune to one byte at
	// best, so a longer name cannot fold onto a member.
	if len(name) > utf8.UTFMax*len("circuitset") {
		return jfUnknown
	}
	var arr [utf8.UTFMax * len("circuitset")]byte
	folded := arr[:0]
	for i := 0; i < len(name); {
		if c := name[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			folded = append(folded, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(name[i:])
		// The smallest rune of r's fold orbit, e.g. 'ſ' → 'S'.
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		folded = utf8.AppendRune(folded, r)
		i += n
	}
	for f := jfID; int(f) < len(jsonFoldedNames); f++ {
		if string(folded) == jsonFoldedNames[f] {
			return f
		}
	}
	return jfUnknown
}

// AppendJSON decodes one JSON Lines alert (the Encoder's format) into a
// new row, under the contract at the top of this file. sc may be nil;
// with a scratch, repeated type, circuit-set and raw strings and parsed
// locations cost a map hit instead of an allocation.
func (b *Batch) AppendJSON(line []byte, sc *WireScratch) error {
	_, err := b.appendJSON(line, sc)
	return err
}

// zeroAlert is the row a line starts from, as json.Unmarshal starts from
// a zero Alert.
var zeroAlert Alert

// appendJSON is AppendJSON that also returns the "id" member, which has
// no column.
func (b *Batch) appendJSON(line []byte, sc *WireScratch) (id uint64, err error) {
	row := b.Len()
	b.Append(&zeroAlert)
	if id, err = b.scanJSON(row, line, sc); err != nil {
		b.DropLast()
		return 0, err
	}
	return id, nil
}

// scanJSON walks the top-level value of data, storing members into row.
func (b *Batch) scanJSON(row int, data []byte, sc *WireScratch) (id uint64, err error) {
	i := skipJSONSpace(data, 0)
	if jsonAt(data, i) != '{' {
		// A bare null is a no-op for json.Unmarshal; every other value is
		// a type error or a syntax error.
		if i, err = scanJSONLiteral(data, i, "null"); err != nil {
			return 0, err
		}
		return 0, jsonEnd(data, i)
	}
	i = skipJSONSpace(data, i+1)
	if jsonAt(data, i) == '}' {
		return 0, jsonEnd(data, i+1)
	}
	for {
		var s []byte
		if s, i, err = jsonStringValue(data, i, sc); err != nil {
			return 0, err
		}
		field := jsonFieldOf(s)
		i = skipJSONSpace(data, i)
		if jsonAt(data, i) != ':' {
			return 0, errJSONSyntax
		}
		i = skipJSONSpace(data, i+1)
		switch c := jsonAt(data, i); {
		case field == jfUnknown:
			i, err = skipJSONValue(data, i, 1)
		case c == 'n':
			i, err = scanJSONLiteral(data, i, "null")
		case field == jfValue || field == jfCount || field == jfID:
			start := i
			if i, err = scanJSONNumber(data, i); err != nil {
				return 0, err
			}
			switch num := data[start:i]; field {
			case jfValue:
				b.Value[row], err = parseFloat(num)
			case jfCount:
				b.Count[row], err = parseInt(num)
				if err == nil && int64(int(b.Count[row])) != b.Count[row] {
					err = fmt.Errorf("alert: json: count %s overflows int", num)
				}
			case jfID:
				id, err = strconv.ParseUint(string(num), 10, 64)
			}
		case field == jfTime || field == jfEnd:
			// time.Time.UnmarshalJSON takes the token as it stands,
			// quotes included and escapes not interpreted.
			start := i
			if i, _, err = scanJSONString(data, i); err != nil {
				return 0, err
			}
			if field == jfTime {
				err = b.Time[row].UnmarshalJSON(data[start:i])
			} else {
				err = b.End[row].UnmarshalJSON(data[start:i])
			}
		default:
			if s, i, err = jsonStringValue(data, i, sc); err != nil {
				return 0, err
			}
			switch field {
			case jfSource:
				b.Source[row], err = parseSourceBytes(s)
			case jfClass:
				b.Class[row], err = parseClassBytes(s)
			case jfType:
				b.Type[row] = wireString(s, sc)
			case jfCircuitSet:
				b.CircuitSet[row] = wireString(s, sc)
			case jfRaw:
				b.Raw[row] = wireString(s, sc)
			case jfLocation:
				b.Location[row], err = jsonLoc(s, sc)
			case jfPeer:
				b.Peer[row], err = jsonLoc(s, sc)
			}
		}
		if err != nil {
			return 0, err
		}
		i = skipJSONSpace(data, i)
		switch jsonAt(data, i) {
		case ',':
			i = skipJSONSpace(data, i+1)
		case '}':
			return id, jsonEnd(data, i+1)
		default:
			return 0, errJSONSyntax
		}
	}
}

// jsonAt is data[i], or 0 — which starts no token and delimits nothing —
// past the end.
func jsonAt(data []byte, i int) byte {
	if i < len(data) {
		return data[i]
	}
	return 0
}

// jsonEnd checks that only white space follows the top-level value.
func jsonEnd(data []byte, i int) error {
	if skipJSONSpace(data, i) != len(data) {
		return errJSONSyntax
	}
	return nil
}

func skipJSONSpace(data []byte, i int) int {
	for i < len(data) && data[i] <= ' ' && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r' || data[i] == '\n') {
		i++
	}
	return i
}

// scanJSONLiteral consumes the literal lit at data[i:].
func scanJSONLiteral(data []byte, i int, lit string) (int, error) {
	if len(data)-i < len(lit) || string(data[i:i+len(lit)]) != lit {
		return 0, errJSONSyntax
	}
	return i + len(lit), nil
}

// scanJSONNumber consumes a number token at data[i:], checking it against
// the JSON grammar (strconv alone accepts more: hex, infinities,
// underscores, a bare leading dot).
func scanJSONNumber(data []byte, i int) (int, error) {
	digits := func() bool {
		start := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > start
	}
	if jsonAt(data, i) == '-' {
		i++
	}
	if jsonAt(data, i) == '0' {
		i++
	} else if !digits() {
		return 0, errJSONSyntax
	}
	if jsonAt(data, i) == '.' {
		i++
		if !digits() {
			return 0, errJSONSyntax
		}
	}
	if c := jsonAt(data, i); c == 'e' || c == 'E' {
		i++
		if c := jsonAt(data, i); c == '+' || c == '-' {
			i++
		}
		if !digits() {
			return 0, errJSONSyntax
		}
	}
	return i, nil
}

// scanJSONString syntax-checks the string token whose opening quote is
// data[i] and returns the index after its closing quote. plain reports
// that the body — data[i+1:next-1] — is its own value: no escapes and
// only valid UTF-8.
func scanJSONString(data []byte, i int) (next int, plain bool, err error) {
	if jsonAt(data, i) != '"' {
		return 0, false, errJSONSyntax
	}
	plain = true
	ascii := true
	for j := i + 1; j < len(data); j++ {
		c := data[j]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			continue // the common byte, one well-predicted branch
		}
		switch {
		case c == '"':
			return j + 1, plain && (ascii || utf8.Valid(data[i+1:j])), nil
		case c == '\\':
			plain = false
			j++
			switch jsonAt(data, j) {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(data)-j <= 4 || jsonHex4(data[j+1:]) < 0 {
					return 0, false, errJSONSyntax
				}
				j += 4
			default:
				return 0, false, errJSONSyntax
			}
		case c < 0x20:
			return 0, false, errJSONSyntax
		default:
			ascii = false
		}
	}
	return 0, false, errJSONSyntax
}

// jsonStringValue consumes the string token at data[i] and returns its
// value: a sub-slice of data when the body is plain, otherwise unquoted
// into the scratch's buffer (valid until the next call) or, with no
// scratch, a fresh one.
func jsonStringValue(data []byte, i int, sc *WireScratch) (s []byte, next int, err error) {
	next, plain, err := scanJSONString(data, i)
	if err != nil {
		return nil, 0, err
	}
	s = data[i+1 : next-1]
	if plain {
		return s, next, nil
	}
	if sc == nil {
		return appendJSONUnquoted(nil, s), next, nil
	}
	sc.unquoted = appendJSONUnquoted(sc.unquoted[:0], s)
	return sc.unquoted, next, nil
}

// jsonHex4 decodes the four hex digits s[0:4] of a \uXXXX escape, or
// returns -1.
func jsonHex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// appendJSONUnquoted appends to dst the value of the string body s
// (already checked by scanJSONString), exactly as encoding/json unquotes
// it: a \u surrogate pair becomes one rune; a lone surrogate and every
// byte of invalid UTF-8 become U+FFFD.
func appendJSONUnquoted(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			c = s[r+1]
			r += 2
			switch c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			case 'u':
				rr := jsonHex4(s[r:])
				r += 4
				if utf16.IsSurrogate(rr) {
					var low rune = -1
					if len(s)-r >= 6 && s[r] == '\\' && s[r+1] == 'u' {
						low = jsonHex4(s[r+2:])
					}
					if rr = utf16.DecodeRune(rr, low); rr != unicode.ReplacementChar {
						r += 6
					}
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			}
			dst = append(dst, c)
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// skipJSONValue consumes and syntax-checks one value of any type at
// data[i:]; depth counts the containers open around it.
func skipJSONValue(data []byte, i, depth int) (next int, err error) {
	var closer byte
	switch c := jsonAt(data, i); {
	case c == '"':
		next, _, err = scanJSONString(data, i)
		return next, err
	case c == 't':
		return scanJSONLiteral(data, i, "true")
	case c == 'f':
		return scanJSONLiteral(data, i, "false")
	case c == 'n':
		return scanJSONLiteral(data, i, "null")
	case c == '{':
		closer = '}'
	case c == '[':
		closer = ']'
	default:
		return scanJSONNumber(data, i)
	}
	if depth++; depth > jsonMaxDepth {
		return 0, errJSONDepth
	}
	i = skipJSONSpace(data, i+1)
	if jsonAt(data, i) == closer {
		return i + 1, nil
	}
	for {
		if closer == '}' {
			if i, _, err = scanJSONString(data, i); err != nil {
				return 0, err
			}
			i = skipJSONSpace(data, i)
			if jsonAt(data, i) != ':' {
				return 0, errJSONSyntax
			}
			i = skipJSONSpace(data, i+1)
		}
		if i, err = skipJSONValue(data, i, depth); err != nil {
			return 0, err
		}
		i = skipJSONSpace(data, i)
		switch jsonAt(data, i) {
		case ',':
			i = skipJSONSpace(data, i+1)
		case closer:
			return i + 1, nil
		default:
			return 0, errJSONSyntax
		}
	}
}
