package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/ordered"
	"repro/internal/sim"
)

// ArrivalKind enumerates the open-loop arrival processes.
type ArrivalKind int

const (
	// ArrPoisson is a homogeneous Poisson process at a fixed rate.
	ArrPoisson ArrivalKind = iota
	// ArrMMPP is a two-state Markov-modulated Poisson process: the rate
	// alternates between a high ("on", burst) and a low ("off") level,
	// with exponentially distributed dwell times in each state.
	ArrMMPP
	// ArrDiurnal is a non-homogeneous Poisson process whose rate follows
	// a raised-cosine day curve from trough to peak over one period.
	ArrDiurnal
	// ArrTrace replays absolute arrival timestamps (and optional request
	// classes) from a JSONL trace.
	ArrTrace
)

// maxRate bounds rates to one arrival per simulated nanosecond: above
// that, interarrival gaps truncate to zero and the "process" degenerates
// into a single burst. minRate keeps nonzero rates' mean gaps (1e9/rate
// seconds) well inside the representable duration range.
const (
	maxRate = 1e9
	minRate = 1e-3
)

// ArrivalSpec describes an open-loop arrival process. Each preset
// derives its own from its pool's capacity; traces come from LoadTrace.
// Rates are requests per simulated second.
type ArrivalSpec struct {
	Kind ArrivalKind
	// Rate is the Poisson rate.
	Rate float64
	// Hi/Lo are the MMPP burst and idle rates; On/Off the mean dwell
	// times in each state.
	Hi, Lo  float64
	On, Off sim.Duration
	// Peak/Trough bound the diurnal rate curve; Period is the cycle
	// length. The curve starts at the trough.
	Peak, Trough float64
	Period       sim.Duration
	// Trace holds the ArrTrace entries (see LoadTrace).
	Trace []TraceEntry
}

// TraceEntry is one request arrival in a JSONL trace. The wire form is
// the same canonical discipline as the checkpoint journal: one compact
// JSON object per line, fixed field order, no floats.
type TraceEntry struct {
	// T is the absolute arrival time.
	T sim.Time `json:"t_ns"`
	// Class optionally names the request class ("web", "kv", "script");
	// empty entries draw from the workload's configured class mix.
	Class string `json:"class,omitempty"`
}

// parseKV parses "k=v,k=v" with no duplicates, dispatching each pair to
// its setter; required keys must all appear.
func parseKV(s string, setters map[string]func(string) error, required ...string) error {
	seen := map[string]bool{}
	if s != "" {
		for _, part := range strings.Split(s, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok {
				return fmt.Errorf("bad parameter %q (want key=value)", part)
			}
			set, known := setters[k]
			if !known {
				return fmt.Errorf("unknown parameter %q (want %s)", k, strings.Join(ordered.Keys(setters), "/"))
			}
			if seen[k] {
				return fmt.Errorf("duplicate parameter %q", k)
			}
			seen[k] = true
			if err := set(v); err != nil {
				return err
			}
		}
	}
	for _, k := range required {
		if !seen[k] {
			return fmt.Errorf("missing required parameter %q", k)
		}
	}
	return nil
}

// parseRate parses "<number>/s" into requests per second, within
// [minRate, maxRate].
func parseRate(s string) (float64, error) {
	num, ok := strings.CutSuffix(s, "/s")
	if !ok {
		return 0, fmt.Errorf("bad rate %q (want e.g. 2500/s)", s)
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || !(v >= minRate && v <= maxRate) {
		return 0, fmt.Errorf("rate %q out of range (want 1e-3 <= rate <= 1e9 requests/s)", s)
	}
	return v, nil
}

// parsePosDur parses a strictly positive duration.
func parsePosDur(s string) (sim.Duration, error) {
	d, err := parseArrDur(s)
	if err == nil && d <= 0 {
		return 0, fmt.Errorf("duration %q must be positive", s)
	}
	return d, err
}

// maxArrDur mirrors the fault DSL's bound: every representable duration
// stays below 2^53 ns so canonical output re-parses identically through
// float64.
const maxArrDur = sim.Duration(1e15)

// parseArrDur parses "<number><unit>" with unit ns/us/ms/s.
func parseArrDur(s string) (sim.Duration, error) {
	i := 0
	for i < len(s) && (s[i] >= '0' && s[i] <= '9' || s[i] == '.') {
		i++
	}
	num, unit := s[:i], s[i:]
	if num == "" {
		return 0, fmt.Errorf("bad duration %q (want e.g. 500ms)", s)
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	var scale sim.Duration
	switch unit {
	case "ns":
		scale = sim.Nanosecond
	case "us":
		scale = sim.Microsecond
	case "ms":
		scale = sim.Millisecond
	case "s":
		scale = sim.Second
	default:
		return 0, fmt.Errorf("bad duration unit %q (want ns/us/ms/s)", unit)
	}
	d := v * float64(scale)
	if d != d || d > float64(maxArrDur) {
		return 0, fmt.Errorf("duration %q out of range", s)
	}
	return sim.Duration(d), nil
}

// fmtRate renders a rate so it re-parses to the identical float64.
func fmtRate(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64) + "/s"
}

// fmtArrDur renders a duration with the largest unit that divides it
// exactly, as the fault DSL does.
func fmtArrDur(d sim.Duration) string {
	switch {
	case d >= sim.Second && d%sim.Second == 0:
		return fmt.Sprintf("%ds", d/sim.Second)
	case d >= sim.Millisecond && d%sim.Millisecond == 0:
		return fmt.Sprintf("%dms", d/sim.Millisecond)
	case d >= sim.Microsecond && d%sim.Microsecond == 0:
		return fmt.Sprintf("%dus", d/sim.Microsecond)
	}
	return fmt.Sprintf("%dns", d)
}

// Validate checks semantic constraints beyond syntax.
func (sp *ArrivalSpec) Validate() error {
	okRate := func(v float64) bool { return v >= minRate && v <= maxRate }
	okLo := func(v float64) bool { return v == 0 || okRate(v) }
	switch sp.Kind {
	case ArrPoisson:
		if !okRate(sp.Rate) {
			return fmt.Errorf("poisson rate %g/s out of range [%g, %g]", sp.Rate, minRate, maxRate)
		}
	case ArrMMPP:
		if !okRate(sp.Hi) || !okLo(sp.Lo) || sp.Lo > sp.Hi {
			return fmt.Errorf("mmpp rates out of range")
		}
		if sp.On <= 0 || sp.Off <= 0 {
			return fmt.Errorf("mmpp dwell times must be positive")
		}
	case ArrDiurnal:
		if !okRate(sp.Peak) || !okLo(sp.Trough) || sp.Trough > sp.Peak {
			return fmt.Errorf("diurnal rates out of range")
		}
		if sp.Period <= 0 {
			return fmt.Errorf("diurnal period must be positive")
		}
	case ArrTrace:
		if len(sp.Trace) == 0 {
			return fmt.Errorf("trace has no arrivals")
		}
		var prev sim.Time = -1
		for i, e := range sp.Trace {
			if e.T < 0 || e.T < prev {
				return fmt.Errorf("trace entry %d: timestamps must be non-negative and non-decreasing", i)
			}
			prev = e.T
		}
	default:
		return fmt.Errorf("unknown arrival kind %d", int(sp.Kind))
	}
	return nil
}

// ArrivalSource generates successive arrivals. Next returns the gap to
// the next arrival and its request class ("" = draw from the workload's
// mix); ok=false means the source is exhausted (finite traces).
type ArrivalSource interface {
	Next(r *sim.Rand) (gap sim.Duration, class string, ok bool)
}

// Source builds the spec's generator. Every source draws only from the
// caller's seeded sim.Rand, so replays are byte-identical.
func (sp *ArrivalSpec) Source() (ArrivalSource, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	switch sp.Kind {
	case ArrPoisson:
		return &poissonSource{mean: rateGap(sp.Rate)}, nil
	case ArrMMPP:
		return &mmppSource{sp: *sp}, nil
	case ArrDiurnal:
		return &diurnalSource{sp: *sp}, nil
	case ArrTrace:
		return &traceSource{entries: sp.Trace}, nil
	}
	return nil, fmt.Errorf("unknown arrival kind %d", int(sp.Kind))
}

// rateGap converts requests/second into the mean interarrival gap.
func rateGap(rate float64) sim.Duration {
	g := sim.Duration(float64(sim.Second) / rate)
	if g < 1 {
		g = 1
	}
	return g
}

type poissonSource struct{ mean sim.Duration }

func (p *poissonSource) Next(r *sim.Rand) (sim.Duration, string, bool) {
	return r.Exp(p.mean), "", true
}

// mmppSource alternates exponential dwell phases at the hi and lo rate.
// A candidate arrival drawn beyond the current phase's remaining dwell
// is discarded and the clock advances into the next phase — the standard
// phase-by-phase simulation of an on/off MMPP.
type mmppSource struct {
	sp      ArrivalSpec
	inited  bool
	onPhase bool
	left    sim.Duration // remaining dwell in the current phase
}

func (s *mmppSource) Next(r *sim.Rand) (sim.Duration, string, bool) {
	if !s.inited {
		s.inited = true
		s.onPhase = true
		s.left = r.Exp(s.sp.On)
	}
	var gap sim.Duration
	for {
		rate := s.sp.Hi
		if !s.onPhase {
			rate = s.sp.Lo
		}
		if rate > 0 {
			d := r.Exp(rateGap(rate))
			if d <= s.left {
				s.left -= d
				return gap + d, "", true
			}
		}
		// No arrival within this phase: cross into the next one.
		gap += s.left
		s.onPhase = !s.onPhase
		if s.onPhase {
			s.left = r.Exp(s.sp.On)
		} else {
			s.left = r.Exp(s.sp.Off)
		}
	}
}

// diurnalSource samples a non-homogeneous Poisson process by thinning:
// candidates are drawn at the peak rate and accepted with probability
// rate(t)/peak, where rate(t) is the raised-cosine curve.
type diurnalSource struct {
	sp  ArrivalSpec
	now sim.Duration // accumulated time since the curve's start
}

func (s *diurnalSource) Next(r *sim.Rand) (sim.Duration, string, bool) {
	mean := rateGap(s.sp.Peak)
	var gap sim.Duration
	for {
		d := r.Exp(mean)
		gap += d
		s.now += d
		phase := float64(s.now%s.sp.Period) / float64(s.sp.Period)
		rate := s.sp.Trough + float64((s.sp.Peak-s.sp.Trough)*(1-sim.Cos(2*math.Pi*phase))/2)
		if r.Float64()*s.sp.Peak <= rate {
			return gap, "", true
		}
	}
}

type traceSource struct {
	entries []TraceEntry
	i       int
	prev    sim.Time
}

func (s *traceSource) Next(_ *sim.Rand) (sim.Duration, string, bool) {
	if s.i >= len(s.entries) {
		return 0, "", false
	}
	e := s.entries[s.i]
	s.i++
	gap := sim.Duration(e.T - s.prev)
	s.prev = e.T
	return gap, e.Class, true
}

// LoadTrace reads a JSONL arrival trace (one TraceEntry per line, blank
// lines skipped). The trace must hold at least one arrival, and its
// timestamps must be non-negative and non-decreasing.
func LoadTrace(r io.Reader) ([]TraceEntry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var entries []TraceEntry
	line := 0
	for sc.Scan() {
		line++
		b := strings.TrimSpace(sc.Text())
		if b == "" {
			continue
		}
		var e TraceEntry
		if err := json.Unmarshal([]byte(b), &e); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sp := ArrivalSpec{Kind: ArrTrace, Trace: entries}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return entries, nil
}

// WriteTrace writes entries in the canonical JSONL form LoadTrace reads.
func WriteTrace(w io.Writer, entries []TraceEntry) error {
	for _, e := range entries {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}
