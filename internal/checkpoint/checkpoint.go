// Package checkpoint provides durable grid journals: append-only JSONL
// files that record each completed cell of an experiment grid so an
// interrupted run — a crash, an OOM kill, a SIGKILL mid-sweep — can
// resume without recomputing finished work.
//
// A journal is one header line followed by one line per completed cell:
//
//	{"kind":"header","version":1,"salt":"<code-version>","scope":"<grid descriptor>"}
//	{"kind":"cell","key":"<64-hex cell hash>","result":{...encoded result...}}
//
// Appends are a single write syscall followed by an fsync, so a record
// is either durably complete or cleanly absent. The reader recovers the
// longest valid prefix: a truncated or corrupt trailing record (the
// signature of a mid-write kill) is discarded with a warning rather
// than failing the whole journal, and Resume truncates the file back to
// the valid prefix before appending new records after it.
//
// The package is deliberately generic — keys are opaque strings and
// payloads opaque JSON — so it has no dependency on the experiment
// layer; internal/experiments computes cell keys (CellKey) and encodes
// results.
package checkpoint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
)

// Version is the journal format version. Bumping it invalidates every
// existing journal on resume. Version 2 records a result's wake latency
// as a histogram instead of its raw samples.
const Version = 2

// CodeSalt identifies the code version that wrote a journal. Headers
// (and the cell keys the experiment layer derives) mix it in so a
// journal written by a different build of the simulator — whose cells
// could encode different results — is rejected on resume instead of
// silently mixing incompatible records.
func CodeSalt() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			if modified == "true" {
				return rev + "+dirty"
			}
			return rev
		}
	}
	return "dev"
}

// Header is the journal's first record.
type Header struct {
	Kind    string `json:"kind"` // always "header"
	Version int    `json:"version"`
	Salt    string `json:"salt"`
	// Scope is a free-form descriptor of the grid the journal belongs
	// to (run id, machines, runs, scale, seed). Resume rejects a
	// journal whose scope differs from the current invocation's.
	Scope string `json:"scope"`
}

// line is the union wire form of every journal record.
type line struct {
	Kind    string          `json:"kind"`
	Version int             `json:"version,omitempty"`
	Salt    string          `json:"salt,omitempty"`
	Scope   string          `json:"scope,omitempty"`
	Key     string          `json:"key,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
}

// Replay is what reading a journal recovers.
type Replay struct {
	// Done maps cell keys to their encoded results. Duplicate keys keep
	// the last record (identical bytes in practice: cells are
	// deterministic and keyed by everything that determines them).
	Done map[string]json.RawMessage
	// Records counts valid cell records read, duplicates included.
	Records int
	// Dropped counts trailing lines discarded as corrupt or truncated.
	Dropped int
	// ValidBytes is the length of the longest valid prefix; Resume
	// truncates the file to it before appending.
	ValidBytes int64
	// Warnings describe anything recovered around (dropped records).
	Warnings []string
}

// Read parses a journal stream, recovering the longest valid prefix.
// It fails only when the header itself is missing or unreadable; any
// later damage truncates the replay instead (Dropped / Warnings). It
// never panics on malformed input (FuzzJournalReplay holds it to that).
func Read(r io.Reader) (*Header, *Replay, error) {
	br := bufio.NewReader(r)
	rep := &Replay{Done: make(map[string]json.RawMessage)}

	raw, complete, err := readLine(br)
	if err != nil && len(raw) == 0 {
		return nil, nil, fmt.Errorf("checkpoint: empty journal")
	}
	var hdr line
	if uerr := json.Unmarshal(raw, &hdr); uerr != nil || !complete || hdr.Kind != "header" {
		return nil, nil, fmt.Errorf("checkpoint: journal does not start with a valid header record")
	}
	rep.ValidBytes = int64(len(raw)) + 1 // header always ends in '\n'

	for {
		raw, complete, err = readLine(br)
		if len(raw) == 0 && err == io.EOF {
			break
		}
		var rec line
		ok := json.Unmarshal(raw, &rec) == nil &&
			rec.Kind == "cell" && rec.Key != "" && json.Valid(rec.Result)
		if !ok {
			// First bad record: everything from here on is outside the
			// valid prefix. Count the remains and stop.
			rep.Dropped = 1 + countLines(br)
			rep.Warnings = append(rep.Warnings, fmt.Sprintf(
				"discarded %d trailing journal record(s) (corrupt or truncated by an interrupted write)", rep.Dropped))
			break
		}
		rep.Done[rec.Key] = rec.Result
		rep.Records++
		rep.ValidBytes += int64(len(raw))
		if complete {
			rep.ValidBytes++
		}
		if err == io.EOF {
			break
		}
	}
	return &Header{Kind: hdr.Kind, Version: hdr.Version, Salt: hdr.Salt, Scope: hdr.Scope}, rep, nil
}

// readLine returns one line without its terminator, whether the
// terminator was present, and io.EOF on the final line.
func readLine(br *bufio.Reader) ([]byte, bool, error) {
	raw, err := br.ReadBytes('\n')
	if len(raw) > 0 && raw[len(raw)-1] == '\n' {
		return raw[:len(raw)-1], true, err
	}
	return raw, false, err
}

// countLines drains br, counting non-empty remaining lines.
func countLines(br *bufio.Reader) int {
	n := 0
	for {
		raw, _, err := readLine(br)
		if len(raw) > 0 {
			n++
		}
		if err != nil {
			return n
		}
	}
}

// Journal is an open journal accepting appends. Safe for concurrent
// use: grid workers append from many goroutines.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	appended int
}

// Create creates (or truncates) a journal at path and writes its
// header, fsync'd, with the current code-version salt.
func Create(path, scope string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr, err := json.Marshal(line{Kind: "header", Version: Version, Salt: CodeSalt(), Scope: scope})
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Write(append(hdr, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f, path: path}, nil
}

// Resume opens an existing journal for continuation: it validates the
// header against the current code version and the caller's scope,
// replays every valid record, truncates any corrupt tail, and reopens
// the file for appends. The returned Replay's Done map feeds the grid's
// skip set.
func Resume(path, scope string) (*Journal, *Replay, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, err
	}
	hdr, rep, err := Read(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := validateHeader(hdr, scope); err != nil {
		f.Close()
		return nil, nil, err
	}
	// Cut the corrupt tail off so new appends continue the valid
	// prefix instead of hiding behind unreadable bytes.
	if err := f.Truncate(rep.ValidBytes); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(rep.ValidBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f, path: path}, rep, nil
}

func validateHeader(hdr *Header, scope string) error {
	if hdr.Version != Version {
		return fmt.Errorf("checkpoint: journal format version %d, this build reads %d", hdr.Version, Version)
	}
	if salt := CodeSalt(); hdr.Salt != salt {
		return fmt.Errorf("checkpoint: journal written by code version %q, this build is %q — results could differ, start a fresh journal", hdr.Salt, salt)
	}
	if hdr.Scope != scope {
		return fmt.Errorf("checkpoint: journal belongs to a different grid (%q, current %q)", hdr.Scope, scope)
	}
	return nil
}

// Load reads a journal from disk without opening it for appends (for
// inspection and tests).
func Load(path string) (*Header, *Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Read(f)
}

// Append durably records one completed cell: a single write of the full
// line, then fsync, so the record is all-or-nothing under any kill.
func (j *Journal) Append(key string, result json.RawMessage) error {
	if key == "" {
		return fmt.Errorf("checkpoint: empty cell key")
	}
	if !json.Valid(result) {
		return fmt.Errorf("checkpoint: cell %s: result is not valid JSON", key)
	}
	rec, err := json.Marshal(line{Kind: "cell", Key: key, Result: result})
	if err != nil {
		return err
	}
	rec = append(rec, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(rec); err != nil {
		return fmt.Errorf("checkpoint: append to %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: fsync %s: %w", j.path, err)
	}
	j.appended++
	return nil
}

// Appended returns the number of records appended through this handle.
func (j *Journal) Appended() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
