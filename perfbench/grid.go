package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
)

// gridWorkers is the pool width of grid-observed, the one workload that
// runs cells in parallel.
const gridWorkers = 2

// gaugeEvery is the gauge period of observed cells: every tick, the way
// figures are regenerated for nestobs.
const gaugeEvery = 4 * sim.Millisecond

// gridStats is what one grid pass measures beyond the per-cell times.
type gridStats struct {
	poolWall     time.Duration // RunGrid's wall time
	busy         time.Duration // summed cell wall time inside the pool
	events       int64         // obs events recorded
	record       time.Duration // time inside the JSONL recorders (traced pass)
	jsonlBytes   int64
	journalBytes int64
	load         time.Duration // checkpoint.Load of the pass's journal
	appends      callStats     // replayed journal appends (traced pass)
}

// jsonlSink is one cell's JSONL event file.
type jsonlSink struct {
	f   *os.File
	n   countWriter
	rec *obs.JSONLRecorder
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}

func createSink(path string) (*jsonlSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := &jsonlSink{f: f}
	s.n.w = f
	s.rec = obs.NewJSONL(&s.n)
	return s, nil
}

func (s *jsonlSink) close() error {
	err := s.rec.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// gridPass runs the cells through experiments.RunGrid with a checkpoint
// journal in a temporary directory and one obs hub per cell writing
// JSONL events and 4 ms gauges. Set-up covers the journal's Create and
// the event files; a cell's own set-up runs from its RunInfo event to
// its first event past time zero.
func (b *bench) gridPass(tr *tracer) *pass {
	n := len(b.specs)
	p := newPass(n)
	failAll := func(err error) *pass {
		for i := range p.errs {
			p.errs[i] = err
		}
		return p
	}
	dir, err := os.MkdirTemp(b.tmp, "grid-")
	if err != nil {
		return failAll(err)
	}
	defer os.RemoveAll(dir)

	cal := b.calib.run()
	m0 := readMem()
	b.heap.take()
	start := stamp()
	jpath := filepath.Join(dir, "journal.jsonl")
	j, err := checkpoint.Create(jpath, b.wl.name)
	if err != nil {
		return failAll(err)
	}
	specs := append([]experiments.RunSpec(nil), b.specs...)
	probes := make([]*recProbe, n)
	sinks := make([]*jsonlSink, n)
	for i := range specs {
		s, err := createSink(filepath.Join(dir, fmt.Sprintf("cell%d.jsonl", i)))
		if err != nil {
			j.Close()
			for _, s := range sinks[:i] {
				s.close()
			}
			return failAll(err)
		}
		sinks[i] = s
		probes[i] = &recProbe{inner: s.rec, timed: tr != nil}
		specs[i].Obs = obs.New(probes[i])
		specs[i].SampleEvery = gaugeEvery
	}
	p.extra = stamp() - start
	poolStart := stamp()
	results, gerr := experiments.RunGrid(specs, experiments.PoolOptions{
		Workers: gridWorkers, KeepGoing: true, Journal: j,
	})
	p.grid.poolWall = stamp() - poolStart
	for i, s := range sinks {
		if err := s.close(); err != nil {
			p.errs[i] = err
		}
	}
	jerr := j.Close()
	p.wall = stamp() - start
	p.peak = b.heap.take()
	p.allocs = []memSnap{since(m0)}
	p.calWall = (cal + b.calib.run()) / 2
	for i := range p.cal {
		p.cal[i] = p.calWall
	}

	for _, e := range leafErrors(gerr) {
		var ce *experiments.CellError
		if errors.As(e, &ce) && p.errs[ce.Index] == nil {
			p.errs[ce.Index] = ce.Err
		}
	}
	for i, pr := range probes {
		p.res[i] = results[i]
		if results[i] == nil && p.errs[i] == nil {
			p.errs[i] = fmt.Errorf("no result: %v", gerr)
		}
		if jerr != nil && p.errs[i] == nil {
			p.errs[i] = jerr
		}
		if pr.first == 0 {
			pr.first = pr.end
		}
		p.setup[i], p.run[i] = pr.first-pr.start, pr.end-pr.first
		p.grid.busy += pr.end - pr.start
		p.grid.events += pr.events
		p.grid.record += pr.record
		p.grid.jsonlBytes += sinks[i].n.n
	}
	p.encodeAll()
	b.checkJournal(p, specs, jpath)
	if b.ref == nil {
		// Decoding every stream costs more than the pass itself; the
		// reference pass checks them, later passes must match its bytes.
		checkStreams(p, sinks)
	}
	if tr != nil {
		replayAppends(p, specs, filepath.Join(dir, "append.jsonl"), b.wl.name)
	}
	return p
}

// leafErrors flattens errors.Join trees.
func leafErrors(err error) []error {
	if err == nil {
		return nil
	}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		var out []error
		for _, e := range j.Unwrap() {
			out = append(out, leafErrors(e)...)
		}
		return out
	}
	return []error{err}
}

// checkJournal reloads the pass's journal: every cell must come back
// byte-identical to its encoded result.
func (b *bench) checkJournal(p *pass, specs []experiments.RunSpec, path string) {
	start := stamp()
	_, rep, err := checkpoint.Load(path)
	p.grid.load = stamp() - start
	if fi, serr := os.Stat(path); serr == nil {
		p.grid.journalBytes = fi.Size()
	}
	for i := range specs {
		if p.errs[i] != nil {
			continue
		}
		key, _ := experiments.CellKey(specs[i])
		switch {
		case err != nil:
			p.errs[i] = fmt.Errorf("journal does not reload: %w", err)
		case !bytes.Equal(rep.Done[key], p.raw[i]):
			p.errs[i] = errors.New("journal record does not reload byte-identical")
		}
	}
}

// checkStreams decodes every cell's JSONL file through obs.DecodeStream:
// it must decode cleanly, line for line.
func checkStreams(p *pass, sinks []*jsonlSink) {
	for i, s := range sinks {
		if p.errs[i] != nil {
			continue
		}
		f, err := os.Open(s.f.Name())
		if err != nil {
			p.errs[i] = err
			continue
		}
		got, err := obs.DecodeStream(f, func(obs.Event) {})
		f.Close()
		switch {
		case err != nil:
			p.errs[i] = fmt.Errorf("JSONL stream does not decode: %w", err)
		case got != s.rec.Lines():
			p.errs[i] = fmt.Errorf("JSONL stream decodes %d events of %d written", got, s.rec.Lines())
		}
	}
}

// replayAppends times checkpoint.Journal.Append on the pass's encoded
// results in a fresh journal: RunGrid appends from inside the pool,
// where no decorator reaches.
func replayAppends(p *pass, specs []experiments.RunSpec, path, scope string) {
	j, err := checkpoint.Create(path, scope)
	if err != nil {
		return
	}
	defer j.Close()
	for i := range specs {
		key, ok := experiments.CellKey(specs[i])
		if !ok || p.raw[i] == nil {
			continue
		}
		start := stamp()
		if err := j.Append(key, p.raw[i]); err != nil {
			return
		}
		p.grid.appends.add(stamp() - start)
	}
}
