package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
)

// JSONLRecorder writes events as one JSON object per line:
//
//	{"ev":"placement","t_ns":4000000,"sched":"nest","path":"attached",...}
//
// The "ev" field is the event's Kind; the remaining fields are the
// event's own. The stream is wire format 2: a core gauge that repeats
// its core's last written state, frequency and queue is left out, and
// ExpandGauges restores it. Errors are sticky: the
// first write or encoding failure stops output and is returned by Flush.
type JSONLRecorder struct {
	bw    *bufio.Writer
	err   error
	n     int
	carry gaugeCarry
}

// jsonlBufSize is the recorder's write buffer: four times bufio's
// default, so a gauge-heavy stream makes a quarter of the writes.
const jsonlBufSize = 16 << 10

// NewJSONL returns a recorder writing to w. Call Flush when done.
func NewJSONL(w io.Writer) *JSONLRecorder {
	return &JSONLRecorder{bw: bufio.NewWriterSize(w, jsonlBufSize)}
}

// lineReserve is the free buffer space Record wants before it encodes a
// line in place: with less, it flushes first, so a typical line never
// outgrows the buffer and forces a reallocation.
const lineReserve = 512

// Record implements Recorder. The line is encoded straight into the
// writer's free buffer and committed with a single Write, so an error
// never leaves half a line behind.
func (r *JSONLRecorder) Record(ev Event) {
	if r.err != nil {
		return
	}
	if r.carry.skip(ev) {
		return
	}
	if r.bw.Available() < lineReserve {
		_ = r.bw.Flush() // a failure sticks in bw; the Write below returns it
	}
	b, err := ev.appendJSON(r.bw.AvailableBuffer())
	if err != nil {
		r.err = err
		return
	}
	if _, err := r.bw.Write(b); err != nil {
		r.err = err
		return
	}
	r.n++
}

// Lines returns the number of lines successfully written. Core gauges
// left out of the stream are not counted.
func (r *JSONLRecorder) Lines() int { return r.n }

// Flush drains buffered output and returns the first error encountered.
func (r *JSONLRecorder) Flush() error {
	if err := r.bw.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// AppendJSONL appends ev's JSONL line, newline included, to b. Unlike
// JSONLRecorder it keeps no state and writes every core gauge, so a
// stream of expanded events written with it is in the full-batch form.
func AppendJSONL(b []byte, ev Event) ([]byte, error) { return ev.appendJSON(b) }

// ---- Wire encoding ----------------------------------------------------
//
// The appendJSON methods produce exactly what encoding/json.Marshal
// produces for the event structs, with the "ev" kind spliced in as the
// first field: keys in struct order, omitempty fields skipped when zero,
// HTML-escaped strings, and encoding/json's float formatting. The keys
// passed to the helpers below carry their leading comma and colon, e.g.
// `,"task":`.

// appendInt appends key and the decimal integer v.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendString appends key and s as a JSON string. Plain printable ASCII
// is copied as is; anything encoding/json would escape or rewrite (quote,
// backslash, <, >, &, control bytes, non-ASCII) goes through
// json.Marshal, so escaping and invalid-UTF-8 replacement match it
// exactly.
func appendString(b []byte, key, s string) []byte {
	b = append(b, key...)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // marshalling a string cannot fail
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends key and f the way encoding/json formats a float64:
// shortest round-trip digits, exponent form only below 1e-6 or from 1e21
// in magnitude, and a one-digit negative exponent ("e-7", not "e-07").
// NaN and ±Inf have no JSON form and fail as encoding/json fails.
func appendFloat(b []byte, key string, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{
			Value: reflect.ValueOf(f),
			Str:   strconv.FormatFloat(f, 'g', -1, 64),
		}
	}
	b = append(b, key...)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// closeLine ends an encoded event line.
func closeLine(b []byte) []byte { return append(b, "}\n"...) }
