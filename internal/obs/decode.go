package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// dec unmarshals a line into a value of the concrete event type, so
// decoded events are the same types live emission produces and recorder
// type switches treat replayed streams identically.
func dec[E Event](line []byte) (Event, error) {
	var e E
	if err := json.Unmarshal(line, &e); err != nil {
		return nil, err
	}
	return e, nil
}

// decPtr is dec for the gauge kinds and execution slices, which live
// emission sends as pointers: it returns a freshly allocated *E.
func decPtr[E any, P interface {
	*E
	Event
}](line []byte) (Event, error) {
	e := P(new(E))
	if err := json.Unmarshal(line, e); err != nil {
		return nil, err
	}
	return e, nil
}

// decodable maps wire kinds to their decoders. Every Event type with a
// JSON wire form must appear here; the decode round-trip test enforces
// that.
var decodable = map[string]func([]byte) (Event, error){
	"run":                 dec[RunInfo],
	"placement":           dec[PlacementDecision],
	"migration":           dec[Migration],
	"slice":               decPtr[ExecSlice],
	"nest_expand":         dec[NestExpand],
	"nest_compact":        dec[NestCompact],
	"impatience":          dec[ImpatienceTrip],
	"freq_grant":          dec[FreqGrant],
	"governor_request":    dec[GovernorRequest],
	"fault":               dec[Fault],
	"invariant_violation": dec[InvariantViolation],
	"tick_balance":        dec[TickBalance],
	"overload":            dec[Overload],
	"fanout":              dec[Fanout],
	"core_gauge":          decPtr[CoreGauge],
	"nest_gauge":          decPtr[NestGauge],
	"socket_gauge":        decPtr[SocketGauge],
	"underload_gauge":     decPtr[UnderloadGauge],
	"run_summary":         dec[RunSummary],
}

// DecodeLine parses one JSONL line written by JSONLRecorder (or
// SeriesBuffer.WriteJSONL) back into its typed event — the same type
// Emit receives (a pointer for the gauge kinds and slices, a value for
// the rest), so decoded streams can replay through any Recorder. Each
// call returns a new event, so a caller may keep decoded gauges and
// slices without copying. Unknown event kinds and blank lines decode to
// (nil, nil) so readers skip what newer writers emit; malformed JSON is
// an error.
func DecodeLine(line []byte) (Event, error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return nil, nil
	}
	var kindOnly struct {
		Ev string `json:"ev"`
	}
	if err := json.Unmarshal(line, &kindOnly); err != nil {
		return nil, fmt.Errorf("obs: bad event line: %w", err)
	}
	d, ok := decodable[kindOnly.Ev]
	if !ok {
		return nil, nil
	}
	ev, err := d(line)
	if err != nil {
		return nil, fmt.Errorf("obs: bad %q event: %w", kindOnly.Ev, err)
	}
	return ev, nil
}

// DecodeStream reads a JSONL event stream line by line, calling fn for
// each decoded event (unknown kinds are skipped). It returns the number
// of events decoded, one per line of a known kind, and the first decode
// or read error. A stream leaves out repeated core gauges (wire format
// 2); pass fn through ExpandGauges to get them back.
func DecodeStream(r io.Reader, fn func(ev Event)) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	n := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		ev, err := DecodeLine(sc.Bytes())
		if err != nil {
			return n, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if ev == nil {
			continue
		}
		fn(ev)
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}
