package experiments

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/metrics"
)

// EncodeResult renders a run's result in the canonical journal form.
// The encoding round-trips exactly: DecodeResult(EncodeResult(r))
// re-encodes to the same bytes (the wake-latency histogram has one
// canonical form), which is what lets a resumed grid reproduce an
// uninterrupted run byte for byte.
func EncodeResult(res *metrics.Result) (json.RawMessage, error) {
	return json.Marshal(res)
}

// DecodeResult restores a result encoded by EncodeResult.
func DecodeResult(raw json.RawMessage) (*metrics.Result, error) {
	res := &metrics.Result{}
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, err
	}
	return res, nil
}

// CellKey returns the canonical identity of a grid cell: a hash over
// every input that determines the cell's encoded result — the run-
// defining RunSpec fields, the canonicalised fault plan, the journal
// format version, and the code-version salt — so a journaled result is
// reused only for a byte-for-byte-equivalent re-run. Observer presence
// is part of the identity because it changes the result's content
// (Stats, invariant-violation counts), not just side channels.
//
// ok is false for cells without a stable identity: an explicit machine
// Spec (no canonical name) or a fault plan that does not parse. Such
// cells always run. An obs hub is part of the identity but its
// recorders are not: a replayed cell delivers the Result alone, so a
// caller that needs a hub's stream (a JSONL file, an obs.Trace, an
// obs.ChromeTrace) runs the cell without a journal.
func CellKey(rs RunSpec) (string, bool) {
	if rs.Spec != nil {
		return "", false
	}
	plan, err := fault.Parse(rs.Faults)
	if err != nil {
		return "", false
	}
	scale := rs.Scale
	if scale <= 0 {
		scale = DefaultScale
	}
	// SampleEvery is part of the identity because gauge emission lands in
	// the result's Stats (counters, event totals) when a hub is attached.
	id := fmt.Sprintf("cell|v%d|%s|%s|%s|%s|%s|scale=%s|seed=%d|limit=%d|faults=%s|obs=%t|sample=%d|check=%t",
		checkpoint.Version, checkpoint.CodeSalt(),
		rs.Machine, rs.Scheduler, rs.Governor, rs.Workload,
		strconv.FormatFloat(scale, 'g', -1, 64), rs.Seed, int64(rs.Limit),
		plan.String(), rs.Obs.Enabled(), int64(rs.SampleEvery), rs.Check != nil)
	sum := sha256.Sum256([]byte(id))
	return hex.EncodeToString(sum[:]), true
}

// RenderCSV writes the report's tabular sections as CSV: one header row
// per section with a leading "section" column. Preformatted content
// (traces) is omitted — CSV is for the numbers.
func (r *Report) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	for i := range r.Sections {
		s := &r.Sections[i]
		if len(s.Columns) == 0 {
			continue
		}
		head := append([]string{"section"}, s.Columns...)
		if err := cw.Write(head); err != nil {
			return err
		}
		for _, row := range s.Rows {
			if err := cw.Write(append([]string{s.Heading}, row...)); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonReport mirrors Report for stable JSON encoding.
type jsonReport struct {
	ID       string        `json:"id"`
	Title    string        `json:"title"`
	Sections []jsonSection `json:"sections"`
}

type jsonSection struct {
	Heading string     `json:"heading,omitempty"`
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Pre     string     `json:"pre,omitempty"`
	Notes   []string   `json:"notes,omitempty"`
}

// RenderJSON writes the full report, including traces and notes, as
// indented JSON.
func (r *Report) RenderJSON(w io.Writer) error {
	out := jsonReport{ID: r.ID, Title: r.Title}
	for i := range r.Sections {
		s := &r.Sections[i]
		out.Sections = append(out.Sections, jsonSection{
			Heading: s.Heading,
			Columns: s.Columns,
			Rows:    s.Rows,
			Pre:     s.Pre,
			Notes:   s.Notes,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
