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
	// Arrival optionally overrides the derived Poisson arrival process
	// with an explicit spec (see ParseArrivalSpec); it only applies to
	// open-loop profiles. QueueDepth bounds the request queue (default
	// 100_000 — effectively unbounded at paper request counts; arrivals
	// that find it full are shed and counted).
	Arrival    string
	QueueDepth int
	// Class labels the request class for SLO accounting ("web", "kv",
	// "script"); SLO is the per-request service-latency target. Requests
	// completing within SLO count toward the run's attainment customs
	// (slo_ok, slo_pct) and the "slo.<class>.*" counters.
	Class string
	SLO   sim.Duration
}

func (p serverProfile) install(m *cpu.Machine, scale float64) {
	reqs := scaleCount(p.Requests, scale, 50)
	svc := jitterCycles(m, p.Service, p.CV)
	acc := &sloAccum{class: p.class(), slo: p.SLO}

	if p.OpenLoop {
		p.installOpenLoop(m, reqs, svc, acc)
		return
	}

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
				return proc.Compute{Cycles: svc(r)}
			default:
				acc.record(t.Now - reqStart)
				reqStart = -1
				state = 0
				return proc.Sleep{D: pause.Draw(r)}
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

// defaultQueueDepth preserves the historic request-queue bound:
// effectively unbounded at paper request counts, so the classic server
// profiles shed nothing, while saturation is still observable through
// the queue_hwm custom and the server.queue_full counter.
const defaultQueueDepth = 100_000

// installOpenLoop builds the queue-fed saturated shape on the shared
// open-loop pool: an engine-driven arrival source (Poisson at
// ArrivalFactor × pool capacity unless the profile names an explicit
// Arrival spec) feeding the bounded request queue. No admission policy,
// deadlines or retries: the classic profiles serve everything that fits
// in the queue, exactly as the old feeder loop did, but the offered
// load can no longer be throttled by the feeders' own scheduling.
func (p serverProfile) installOpenLoop(m *cpu.Machine, reqs int, svc func(*sim.Rand) int64, acc *sloAccum) {
	src := p.arrivalSource()
	depth := p.QueueDepth
	if depth <= 0 {
		depth = defaultQueueDepth
	}
	installOpenLoopPool(m, openLoopCfg{
		handlers:   p.Handlers,
		total:      reqs,
		queueDepth: depth,
		src:        src,
		adm:        admitAll{},
		classes: []reqClass{{
			name: p.class(), share: 1, svc: svc, slo: p.SLO, acc: acc,
		}},
	})
}

// arrivalSource derives the profile's arrival process: an explicit
// Arrival spec when set, else Poisson at ArrivalFactor × the pool's
// nominal capacity Handlers/(Service+Pause).
func (p serverProfile) arrivalSource() ArrivalSource {
	if p.Arrival != "" {
		sp, err := ParseArrivalSpec(p.Arrival)
		if err != nil {
			panic(fmt.Sprintf("workload: bad arrival spec %q: %v", p.Arrival, err))
		}
		src, err := sp.Source()
		if err != nil {
			panic(fmt.Sprintf("workload: arrival spec %q: %v", p.Arrival, err))
		}
		return src
	}
	meanSvc := float64(p.Service + p.Pause)
	rate := maxf(p.ArrivalFactor, 0.05) * float64(p.Handlers) / meanSvc * float64(sim.Second)
	sp := &ArrivalSpec{Kind: ArrPoisson, Rate: rate}
	src, err := sp.Source()
	if err != nil {
		panic(fmt.Sprintf("workload: derived arrival rate invalid: %v", err))
	}
	return src
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
