package alert

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// This file implements the two wire encodings used by SkyNet's ingestion
// and trace layers:
//
//   - JSON Lines: one JSON object per line, used for trace files and the
//     TCP ingestion listener. Self-describing and extensible.
//   - A compact pipe-delimited line format used by the UDP listener, in
//     the spirit of the raw monitoring feeds shown in Figure 2b:
//     "<unix-nanos>|<source>|<type>|<class>|<location>|<value>|<raw>".

// MaxLineBytes bounds a single encoded alert line. Lines beyond this are
// rejected by decoders to protect the ingestion path from hostile or
// corrupt peers.
const MaxLineBytes = 64 * 1024

// ErrLineTooLong is returned when an encoded alert exceeds MaxLineBytes.
var ErrLineTooLong = errors.New("alert: encoded line exceeds limit")

// Encoder writes alerts as JSON Lines to an underlying writer.
// It is not safe for concurrent use.
type Encoder struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	bw := bufio.NewWriter(w)
	return &Encoder{w: bw, enc: json.NewEncoder(bw)}
}

// Encode writes one alert as a JSON line.
func (e *Encoder) Encode(a *Alert) error {
	if err := e.enc.Encode(a); err != nil {
		return fmt.Errorf("alert: encode: %w", err)
	}
	return nil
}

// Flush flushes buffered output to the underlying writer.
func (e *Encoder) Flush() error { return e.w.Flush() }

// Lines frames a JSON Lines stream: it yields one non-blank line at a
// time, which the caller decodes with Batch.AppendJSON. It is not safe
// for concurrent use.
type Lines struct {
	s *bufio.Scanner
}

// NewLines returns a line framer reading from r. Its buffer is one
// maximal line, MaxLineBytes, from the start: a line that does not fit
// fails with ErrLineTooLong, and every Read it issues asks for all the
// room left in the buffer — up to 64 KB per syscall on a socket with a
// backlog, rather than a buffer that grows from 4 KB only when a single
// line demands it.
func NewLines(r io.Reader) *Lines {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, MaxLineBytes), MaxLineBytes)
	return &Lines{s: s}
}

// Next returns the next non-blank line with surrounding white space
// trimmed, or io.EOF at end of input. The slice aliases the framer's
// buffer and is valid until the next call.
func (l *Lines) Next() ([]byte, error) {
	for l.s.Scan() {
		if line := bytes.TrimSpace(l.s.Bytes()); len(line) > 0 {
			return line, nil
		}
	}
	if err := l.s.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, ErrLineTooLong
		}
		return nil, fmt.Errorf("alert: read line: %w", err)
	}
	return nil, io.EOF
}

// Decoder reads JSON Lines alerts from an underlying reader, one Alert
// at a time — trace files and tests; the ingest path decodes Lines
// straight into its batches. It is not safe for concurrent use.
type Decoder struct {
	lines *Lines
	row   Batch // the one row Decode scans into
	sc    WireScratch
}

// NewDecoder returns a Decoder reading from r. Lines longer than
// MaxLineBytes cause Decode to fail.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{lines: NewLines(r)}
}

// Decode reads the next alert. It returns io.EOF at end of input and skips
// blank lines.
func (d *Decoder) Decode(a *Alert) error {
	line, err := d.lines.Next()
	if err != nil {
		return err
	}
	d.row.Reset()
	id, err := d.row.appendJSON(line, &d.sc)
	if err != nil {
		return fmt.Errorf("alert: decode: %w", err)
	}
	d.row.AlertAt(0, a)
	a.ID = id
	return nil
}

// ReadAll decodes every alert from r. It is a convenience for tests and
// trace loading; streaming consumers should use Decoder directly.
func ReadAll(r io.Reader) ([]Alert, error) {
	d := NewDecoder(r)
	var out []Alert
	for {
		var a Alert
		err := d.Decode(&a)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
}

// WriteAll encodes every alert to w as JSON Lines.
func WriteAll(w io.Writer, alerts []Alert) error {
	e := NewEncoder(w)
	for i := range alerts {
		if err := e.Encode(&alerts[i]); err != nil {
			return err
		}
	}
	return e.Flush()
}

// AppendWire appends the compact pipe-delimited form of a to dst and
// returns the extended slice. The format is:
//
//	<unix-nanos>|<end-unix-nanos>|<source>|<type>|<class>|<location>|<peer>|<value>|<count>|<circuitset>|<raw>
//
// Location segments use hierarchy.Sep internally, so location fields are
// sub-delimited with "/" on the wire.
func AppendWire(dst []byte, a *Alert) []byte {
	dst = appendInt(dst, a.Time.UnixNano())
	dst = append(dst, '|')
	dst = appendInt(dst, a.End.UnixNano())
	dst = append(dst, '|')
	dst = append(dst, a.Source.String()...)
	dst = append(dst, '|')
	dst = append(dst, escapeWire(a.Type)...)
	dst = append(dst, '|')
	dst = append(dst, a.Class.String()...)
	dst = append(dst, '|')
	dst = a.Location.AppendString(dst, wireLocSep)
	dst = append(dst, '|')
	dst = a.Peer.AppendString(dst, wireLocSep)
	dst = append(dst, '|')
	dst = appendFloat(dst, a.Value)
	dst = append(dst, '|')
	dst = appendInt(dst, int64(a.Count))
	dst = append(dst, '|')
	dst = append(dst, escapeWire(a.CircuitSet)...)
	dst = append(dst, '|')
	dst = append(dst, escapeWire(a.Raw)...)
	return dst
}

// splitWire walks a wire line's fields in place (no slice-of-slices
// allocation). The returned sub-slices alias line; callers must
// materialize anything they keep. Shared by ParseWire and
// Batch.AppendWire so both decoders agree on framing exactly.
func splitWire(line []byte) ([11][]byte, error) {
	var fields [11][]byte
	if len(line) > MaxLineBytes {
		return fields, ErrLineTooLong
	}
	nf, start := 0, 0
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == '|' {
			if nf < len(fields) {
				fields[nf] = line[start:i]
			}
			nf++
			start = i + 1
		}
	}
	if nf != 11 {
		return fields, fmt.Errorf("alert: wire: %d fields, want 11", nf)
	}
	return fields, nil
}

// ParseWire parses the compact pipe-delimited form produced by AppendWire.
// Every string field is materialized fresh; decoders on a hot loop should
// use WireScratch.ParseWire instead, which interns repeated values.
func ParseWire(line []byte) (Alert, error) {
	return parseWire(line, nil)
}

// ParseWire is ParseWire through the scratch's intern caches: decoding a
// line whose string fields have all been seen before is allocation-free.
func (sc *WireScratch) ParseWire(line []byte) (Alert, error) {
	return parseWire(line, sc)
}

func parseWire(line []byte, sc *WireScratch) (Alert, error) {
	fields, err := splitWire(line)
	if err != nil {
		return Alert{}, err
	}
	var a Alert
	startNanos, err := parseInt(fields[0])
	if err != nil {
		return Alert{}, fmt.Errorf("alert: wire time: %w", err)
	}
	endNanos, err := parseInt(fields[1])
	if err != nil {
		return Alert{}, fmt.Errorf("alert: wire end: %w", err)
	}
	a.Time = unixNano(startNanos)
	a.End = unixNano(endNanos)
	if a.Source, err = parseSourceBytes(fields[2]); err != nil {
		return Alert{}, err
	}
	a.Type = wireString(fields[3], sc)
	if a.Class, err = parseClassBytes(fields[4]); err != nil {
		return Alert{}, err
	}
	if a.Location, err = wireLoc(fields[5], sc); err != nil {
		return Alert{}, fmt.Errorf("alert: wire location: %w", err)
	}
	if a.Peer, err = wireLoc(fields[6], sc); err != nil {
		return Alert{}, fmt.Errorf("alert: wire peer: %w", err)
	}
	if a.Value, err = parseFloat(fields[7]); err != nil {
		return Alert{}, fmt.Errorf("alert: wire value: %w", err)
	}
	count, err := parseInt(fields[8])
	if err != nil {
		return Alert{}, fmt.Errorf("alert: wire count: %w", err)
	}
	a.Count = int(count)
	a.CircuitSet = wireString(fields[9], sc)
	a.Raw = wireString(fields[10], sc)
	return a, nil
}
