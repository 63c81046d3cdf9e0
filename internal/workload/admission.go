package workload

import (
	"fmt"

	"strconv"
	"strings"

	"repro/internal/sim"
)

// admission is a pluggable overload policy at the server's request
// queue. admit is consulted at arrival time (prio 0 is the highest
// request class; larger numbers shed earlier); dropAtDequeue is
// consulted when a handler pops a request, with the request's queue
// sojourn. All state advances only on simulated time and queue lengths,
// so policies are deterministic under replay.
type admission interface {
	name() string
	admit(now sim.Time, prio, qlen int) bool
	dropAtDequeue(now sim.Time, sojourn sim.Duration, qlen int) bool
}

// ParseAdmission parses the admission-policy DSL:
//
//	none                                admit everything, never drop
//	cap:<depth>                         queue-depth cap, class-graded
//	token:rate=<rate>,burst=<n>         token bucket, class-reserved
//	codel:target=<dur>,interval=<dur>   CoDel-style sojourn shedding
//
// Rates are "<number>/s" as in the arrival DSL. The cap policy admits
// the highest class up to the full depth, the middle class up to 3/4,
// and lower classes up to 1/2 — graceful degradation sheds "script"
// before "kv" before "web". The token bucket reserves the analogous
// fractions of the burst. String renders the canonical form.
func ParseAdmission(s string) (admission, error) {
	s = strings.TrimSpace(s)
	if s == "none" {
		return admitAll{}, nil
	}
	head, rest, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("admission spec %q: missing ':' (want kind:params or none)", s)
	}
	switch head {
	case "cap":
		depth, err := strconv.Atoi(rest)
		if err != nil || depth < 1 || depth > 1<<30 {
			return nil, fmt.Errorf("cap: bad depth %q (want a positive integer)", rest)
		}
		return &capPolicy{depth: depth}, nil
	case "token":
		p := &tokenPolicy{}
		err := parseKV(rest, map[string]func(string) error{
			"rate": func(v string) (err error) { p.rate, err = parseRate(v); return },
			"burst": func(v string) error {
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 || n > 1<<30 {
					return fmt.Errorf("token: bad burst %q (want a positive integer)", v)
				}
				p.burst = float64(n)
				return nil
			},
		}, "rate", "burst")
		if err != nil {
			return nil, err
		}
		p.tokens = p.burst
		return p, nil
	case "codel":
		p := &codelPolicy{}
		err := parseKV(rest, map[string]func(string) error{
			"target":   func(v string) (err error) { p.target, err = parsePosDur(v); return },
			"interval": func(v string) (err error) { p.interval, err = parsePosDur(v); return },
		}, "target", "interval")
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	return nil, fmt.Errorf("unknown admission kind %q (want none/cap/token/codel)", head)
}

// admitAll is the null policy.
type admitAll struct{}

func (admitAll) name() string                                   { return "none" }
func (admitAll) admit(sim.Time, int, int) bool                  { return true }
func (admitAll) dropAtDequeue(sim.Time, sim.Duration, int) bool { return false }

// capPolicy bounds queue depth, with lower-priority classes hitting
// their (smaller) cap first.
type capPolicy struct{ depth int }

func (p *capPolicy) name() string { return fmt.Sprintf("cap:%d", p.depth) }

// prioLimit grades a budget by class priority: full for the top class,
// 3/4 for the next, 1/2 below that.
func prioLimit(budget float64, prio int) float64 {
	switch {
	case prio <= 0:
		return budget
	case prio == 1:
		return budget * 3 / 4
	}
	return budget / 2
}

func (p *capPolicy) admit(_ sim.Time, prio, qlen int) bool {
	return float64(qlen) < prioLimit(float64(p.depth), prio)
}

func (p *capPolicy) dropAtDequeue(sim.Time, sim.Duration, int) bool { return false }

// tokenPolicy is a token bucket refilled in simulated time. Lower
// classes must leave a reserve in the bucket, so under sustained
// overload the tokens that do refill go to the top class.
type tokenPolicy struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   sim.Time
}

func (p *tokenPolicy) name() string {
	return fmt.Sprintf("token:rate=%s,burst=%d", fmtRate(p.rate), int(p.burst))
}

func (p *tokenPolicy) admit(now sim.Time, prio, _ int) bool {
	p.tokens += p.rate * sim.Duration(now-p.last).Seconds()
	if p.tokens > p.burst {
		p.tokens = p.burst
	}
	p.last = now
	// The reserve is the bucket share a class may not dip into: the top
	// class spends down to zero, lower classes stop earlier.
	reserve := p.burst - prioLimit(p.burst, prio)
	if p.tokens < reserve+1 {
		return false
	}
	p.tokens--
	return true
}

func (p *tokenPolicy) dropAtDequeue(sim.Time, sim.Duration, int) bool { return false }

// codelPolicy is CoDel-style sojourn-time shedding at dequeue, in the
// server-queue variant (adaptive queue timeout): as long as some
// dequeue within the last interval found the standing delay below
// target (or the queue empty), nothing is shed and the request deadline
// alone bounds waiting. Once every dequeue for a full interval has seen
// sojourn above target — sustained overload, the queue no longer
// drains — the policy latches into dropping and sheds every dequeued
// request whose sojourn exceeds target until the standing delay dips
// back below it. Network CoDel's one-drop-per-control-interval ramp is
// far too slow for request queues at serving rates; clamping the
// sojourn to target directly is what keeps served requests inside
// their deadline. Admission always accepts — the pool's queue bound is
// the backstop.
type codelPolicy struct {
	target   sim.Duration
	interval sim.Duration

	lastBelow sim.Time // last dequeue that saw sojourn < target or an empty queue
	dropping  bool
}

func (p *codelPolicy) name() string {
	return fmt.Sprintf("codel:target=%s,interval=%s", fmtArrDur(p.target), fmtArrDur(p.interval))
}

func (p *codelPolicy) admit(sim.Time, int, int) bool { return true }

func (p *codelPolicy) dropAtDequeue(now sim.Time, sojourn sim.Duration, qlen int) bool {
	if sojourn < p.target || qlen == 0 {
		// Standing delay back under control: stop dropping and restart
		// the overload-detection interval.
		p.lastBelow = now
		p.dropping = false
		return false
	}
	if p.dropping {
		return true
	}
	if now-p.lastBelow > sim.Time(p.interval) {
		p.dropping = true
		return true
	}
	return false
}
