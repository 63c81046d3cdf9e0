package workload

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/proc"
	"repro/internal/sim"
)

// serverProfile models the Phoronix server tests (§5.6). Most are
// closed-loop: a fixed set of client-driven handlers issue the next
// request as soon as the previous one completes, each request being some
// compute plus an optional mid-request wait (disk, fsync). Wall time is
// then work-limited, so placement and frequency effects show directly —
// the leveldb/redis/perl pattern. Saturating tests (apache-siege at high
// concurrency) use an open-loop queue instead: arrivals outpace the pool
// and queueing dominates.
type serverProfile struct {
	// Handlers is the worker pool size.
	Handlers int
	// Requests is the total request count at paper scale.
	Requests int
	// Service is the per-request compute; Pause an optional mid-request
	// wait (I/O, fsync).
	Service sim.Duration
	CV      float64
	Pause   sim.Duration
	PauseCV float64
	// OpenLoop feeds requests through a queue at ArrivalFactor × pool
	// capacity instead of client-driven closed loops.
	OpenLoop      bool
	ArrivalFactor float64
	// Class labels the request class for SLO accounting ("web", "kv",
	// "script"); SLO is the per-request service-latency target. Requests
	// completing within SLO count toward the run's attainment customs
	// (slo_ok, slo_pct) and the "slo.<class>.*" counters.
	Class string
	SLO   sim.Duration
}

func (p serverProfile) install(m *cpu.Machine, scale float64) {
	if p.OpenLoop {
		p.openLoop().install(m, scale)
		return
	}
	reqs := scaleCount(p.Requests, scale, 50)
	svc := jitterCycles(m, p.Service, p.CV)
	acc := &sloAccum{class: p.class(), slo: p.SLO}

	// Closed loop: each handler serves its share back to back. The share
	// division leaves a remainder of reqs%Handlers requests; the first
	// remainder handlers take one extra so exactly reqs are served.
	perHandler := reqs / p.Handlers
	remainder := reqs % p.Handlers
	if perHandler < 1 && remainder == 0 {
		perHandler = 1
	}
	pause := sim.NewLogNormal(p.Pause, maxf(p.PauseCV, 0.3))
	mkHandler := func(extra int) proc.Behavior {
		left := perHandler + extra
		state := 0
		reqStart := sim.Time(-1)
		var serve proc.Compute // owned actions (see proc.Action)
		var rest proc.Sleep
		return func(t *proc.Task, r *sim.Rand) proc.Action {
			switch state {
			case 0:
				// Reaching state 0 again means the previous request's
				// service compute (if any) just finished.
				if reqStart >= 0 {
					acc.record(t.Now - reqStart)
					reqStart = -1
				}
				if left == 0 {
					return proc.Exit{}
				}
				left--
				reqStart = t.Now
				if p.Pause > 0 {
					state = 1
				}
				serve.Cycles = svc(r)
				return &serve
			default:
				acc.record(t.Now - reqStart)
				reqStart = -1
				state = 0
				rest.D = pause.Draw(r)
				return &rest
			}
		}
	}
	var actions []proc.Action
	for i := 0; i < p.Handlers; i++ {
		extra := 0
		if i < remainder {
			extra = 1
		}
		actions = append(actions, proc.Fork{Name: fmt.Sprintf("handler-%d", i), Behavior: mkHandler(extra)})
	}
	actions = append(actions, proc.WaitChildren{})
	m.Spawn("server-main", proc.Script(actions...))
	acc.finishOn(m, "server-main")
}

// class returns the profile's request class, defaulting to "web".
func (p serverProfile) class() string {
	if p.Class == "" {
		return "web"
	}
	return p.Class
}

// openLoop builds the queue-fed saturated shape on the shared open-loop
// pool: Poisson arrivals at ArrivalFactor × the pool's nominal capacity
// Handlers/(Service+Pause) feeding the request queue. No admission
// policy, deadlines or retries: the classic profiles serve everything
// that fits in the queue, whose 100_000 bound is effectively unbounded
// at paper request counts (saturation still shows in the queue_hwm
// custom and the server.queue_full counter), but the offered load
// cannot be throttled by the feeders' own scheduling.
func (p serverProfile) openLoop() openLoopProfile {
	meanSvc := float64(p.Service + p.Pause)
	rate := maxf(p.ArrivalFactor, 0.05) * float64(p.Handlers) / meanSvc * float64(sim.Second)
	return openLoopProfile{
		handlers:   p.Handlers,
		requests:   p.Requests,
		queueDepth: 100_000,
		mix:        []overloadClass{{name: p.class(), share: 1, service: p.Service, cv: p.CV, slo: p.SLO}},
		arrival:    ArrivalSpec{Kind: ArrPoisson, Rate: rate},
		admission:  "none",
	}
}

// serverTests models the §5.6 server results on the 2-socket 6130:
// apache-siege degrades under Nest at high concurrency, nginx/node/php
// hold parity, leveldb (+25%), redis (+7%) and perl (+16%) gain from warm
// cores, rocksdb random-read loses a few percent.
var serverTests = []struct {
	name string
	secs float64
	prof serverProfile
}{
	// SLO targets are ~4x the mean service time: generous enough that an
	// unloaded warm core always meets them, tight enough that cold
	// placements, slow ramps and queueing show up as attainment loss.
	{"apache-siege-250", 15, serverProfile{Handlers: 96, Requests: 60000, Service: 900 * sim.Microsecond, CV: 0.6, OpenLoop: true, ArrivalFactor: 1.3, Class: "web", SLO: 4 * msec}},
	{"apache-siege-100", 15, serverProfile{Handlers: 64, Requests: 40000, Service: 900 * sim.Microsecond, CV: 0.6, OpenLoop: true, ArrivalFactor: 0.9, Class: "web", SLO: 4 * msec}},
	{"nginx-200", 15, serverProfile{Handlers: 32, Requests: 60000, Service: 500 * sim.Microsecond, CV: 0.4, Pause: 300 * sim.Microsecond, PauseCV: 0.5, Class: "web", SLO: 2 * msec}},
	{"nodejs", 12, serverProfile{Handlers: 4, Requests: 8000, Service: 4 * msec, CV: 0.5, Pause: 800 * sim.Microsecond, Class: "web", SLO: 16 * msec}},
	{"php", 12, serverProfile{Handlers: 8, Requests: 9000, Service: 3 * msec, CV: 0.5, Pause: 800 * sim.Microsecond, Class: "web", SLO: 12 * msec}},
	// Key-value stores: client-driven requests with fsync-style pauses —
	// the blinker pattern where keeping the core warm pays most.
	{"leveldb", 15, serverProfile{Handlers: 2, Requests: 4000, Service: 1500 * sim.Microsecond, CV: 0.4, Pause: 5 * msec, PauseCV: 1.3, Class: "kv", SLO: 6 * msec}},
	{"redis", 14, serverProfile{Handlers: 2, Requests: 9000, Service: 800 * sim.Microsecond, CV: 0.4, Pause: 1800 * sim.Microsecond, PauseCV: 0.9, Class: "kv", SLO: 3200 * sim.Microsecond}},
	{"rocksdb-randread", 14, serverProfile{Handlers: 32, Requests: 40000, Service: 1500 * sim.Microsecond, CV: 0.3, Class: "kv", SLO: 6 * msec}},
	{"perl", 12, serverProfile{Handlers: 1, Requests: 1500, Service: 2500 * sim.Microsecond, CV: 0.5, Pause: 6 * msec, PauseCV: 1.3, Class: "script", SLO: 10 * msec}},
}

// ServerNames lists the server tests.
func ServerNames() []string {
	out := make([]string, len(serverTests))
	for i, t := range serverTests {
		out[i] = t.name
	}
	return out
}

func init() {
	for _, t := range serverTests {
		t := t
		register(&Workload{
			Name:         "server/" + t.name,
			Suite:        "server",
			PaperSeconds: t.secs,
			Install: func(m *cpu.Machine, scale float64) {
				t.prof.install(m, scale)
			},
		})
	}
}
