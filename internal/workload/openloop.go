package workload

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sim"
)

// overloadClass declares one request class of an open-loop preset.
// Priority 0 is the highest (shed last); share is the class's fraction
// of untagged arrivals; service and cv shape the lognormal service
// time; slo is the per-request latency target.
type overloadClass struct {
	name    string
	prio    int
	share   float64
	service sim.Duration
	cv      float64
	slo     sim.Duration
}

// reqClass is one request class of a running pool: service cycles are
// drawn per request from the handler's seeded RNG, and latencies feed
// the class's SLO accumulator.
type reqClass struct {
	name  string
	prio  int
	share float64
	svc   func(*sim.Rand) int64
	acc   *sloAccum
}

// request is one delivery attempt flowing through the open-loop server.
// Requests are pooled on the owning openLoop: taken at arrival or retry,
// recycled when the attempt settles, so sustained load allocates no
// request structs.
type request struct {
	ol       *openLoop
	class    int // index into openLoop.classes
	attempt  int // 0 = first try, incremented per client retry
	arrived  sim.Time
	deadline sim.Time // 0 = no deadline
	enqueued sim.Time
	// fan marks a subtask attempt of a fan-out parent (fanout.go):
	// slot/fstage locate it in the fan, hedgeN numbers duplicates
	// (0 = the slot's primary attempt).
	fan      *fanReq
	slot     int
	fstage   int
	hedgeN   int
	nextFree *request
}

// RunAt implements sim.Runner: a retry backoff timer expires and the
// attempt is delivered.
func (rq *request) RunAt(now sim.Time) { rq.ol.deliver(rq) }

// poolSlab is how many records one refill of an open-loop pool's
// free-list allocates at once (requests, fan-out records, hedge timers).
const poolSlab = 64

// newRequest takes a request from the pool, refilling it with a fresh
// slab when empty.
//
//pool:get
func (ol *openLoop) newRequest(class, attempt int) *request {
	rq := ol.reqFree
	if rq == nil {
		slab := make([]request, poolSlab)
		for i := range slab {
			slab[i].ol = ol
			if i+1 < len(slab) {
				slab[i].nextFree = &slab[i+1]
			}
		}
		rq = &slab[0]
	}
	ol.reqFree = rq.nextFree
	rq.nextFree = nil
	rq.class, rq.attempt = class, attempt
	rq.arrived, rq.deadline, rq.enqueued = 0, 0, 0
	rq.fan, rq.slot, rq.fstage, rq.hedgeN = nil, 0, 0, 0
	return rq
}

// freeRequest returns a settled request to the pool.
//
//pool:put
func (ol *openLoop) freeRequest(rq *request) {
	rq.nextFree = ol.reqFree
	ol.reqFree = rq
}

// pumpRunner is the arrival pump's persistent engine callback: exactly
// one pump event is outstanding at a time, carrying the trace-supplied
// class name (if any) in pendingClass.
type pumpRunner struct{ ol *openLoop }

// RunAt implements sim.Runner: one base arrival lands.
func (p *pumpRunner) RunAt(now sim.Time) {
	ol := p.ol
	ol.delivered++
	ol.deliver(ol.newRequest(ol.classIndex(ol.pendingClass), 0))
	ol.scheduleNextArrival()
}

// Attempt outcomes. Every delivered attempt terminates in exactly one:
// completed (served within its deadline), timed out (expired in queue,
// or served too late), or shed (admission reject, full queue, or a
// CoDel-style drop at dequeue). The conservation test in
// overload_test.go holds the workload to that.
const (
	outCompleted = iota
	outTimeoutQueue
	outTimeoutServed
	outShedAdmission
	outShedFull
	outShedCodel
	// Fan-out parents (fanout.go): the request was doomed because its
	// aggregation rule became unsatisfiable — a needed subtask slot
	// blew its stage deadline budget, or was shed with no hedge left.
	outTimeoutFanout
	outShedFanout
)

// outName maps outcomes to the obs Overload event's action strings.
var outName = [...]string{
	outCompleted:     "completed",
	outTimeoutQueue:  "timeout_queue",
	outTimeoutServed: "timeout_served",
	outShedAdmission: "shed_admission",
	outShedFull:      "shed_full",
	outShedCodel:     "shed_codel",
	outTimeoutFanout: "timeout_fanout",
	outShedFanout:    "shed_fanout",
}

// openLoopProfile declares an open-loop serving preset: every
// overload/*, fanout/* and trace/* workload and the open-loop server/*
// tests. A preset states its pool, class list, arrival process and
// admission spec; installOpenLoopPool builds the stateful parts (source,
// admission policy, per-class samplers and accumulators) fresh for
// every run.
type openLoopProfile struct {
	handlers   int
	requests   int // base arrivals at paper scale (a trace's own length replaces it)
	queueDepth int
	timeout    sim.Duration // per-attempt deadline; 0 = none
	retries    int
	backoff    sim.Duration // retry backoff base (doubles per attempt)
	mix        []overloadClass
	arrival    ArrivalSpec
	admission  string // admission DSL (ParseAdmission)
	// fan enables the fan-out request lifecycle (fanout.go): admitted
	// parents spawn fan.Width subtask attempts per stage instead of
	// entering the queue themselves; hedge is the duplicate-issue
	// policy for straggling slots.
	fan   *FanoutSpec
	hedge HedgeSpec
	// endToEnd selects what SLO accounting measures: queue wait plus
	// service (the overload suite) or service only (the classic §5.6
	// server profiles, preserving their semantics).
	endToEnd bool
}

// install is the Workload.Install of every open-loop preset. The base
// arrival budget is the scaled request count; a trace's is its scaled
// length, which may fall below the presets' 50-request floor.
func (p openLoopProfile) install(m *cpu.Machine, scale float64) {
	total := scaleCount(p.requests, scale, 50)
	if p.arrival.Kind == ArrTrace {
		total = scaleCount(len(p.arrival.Trace), scale, 1)
	}
	installOpenLoopPool(m, p, total)
}

// build makes the profile's stateful parts: a fresh arrival source and
// admission policy.
func (p openLoopProfile) build() (ArrivalSource, admission, error) {
	src, err := p.arrival.Source()
	if err != nil {
		return nil, nil, err
	}
	adm, err := ParseAdmission(p.admission)
	if err != nil {
		return nil, nil, fmt.Errorf("admission: %w", err)
	}
	return src, adm, nil
}

// registerOpenLoop registers an open-loop workload built from outside
// input. It builds the source and admission policy once first, so bad
// input fails here rather than inside the first cell.
func registerOpenLoop(name, suite string, p openLoopProfile) error {
	if _, _, err := p.build(); err != nil {
		return fmt.Errorf("workload: %s %q: %w", suite, name, err)
	}
	if _, err := ByName(name); err == nil {
		return fmt.Errorf("workload: %q already registered", name)
	}
	register(&Workload{Name: name, Suite: suite, PaperSeconds: 1, Install: p.install})
	return nil
}

// openLoopCfg is one run's pool: the profile plus the state built for
// that run alone.
type openLoopCfg struct {
	openLoopProfile
	total   int // base arrivals to generate (traces may end earlier)
	src     ArrivalSource
	adm     admission
	classes []reqClass
}

// perClass is the per-class attempt accounting.
type perClass struct {
	offered, completed, timedOut, shed, retries int64
}

// openLoop drives an open-loop serving pool: an engine-scheduled
// arrival pump (never a task, so the offered load cannot be throttled
// by scheduling — that would quietly turn the source closed-loop), an
// admission policy at the bounded request queue, a handler pool, and a
// client model with deadlines and retry/backoff.
//
// Determinism: the pump draws from its own sim.Rand (seeded from the
// run seed), so the base arrival stream is identical across schedulers
// and policies at the same seed; the client RNG (backoff jitter) is
// separate so retries — which legitimately depend on system behavior —
// do not perturb base arrivals. Handlers draw service times from the
// machine RNG as all workloads do.
type openLoop struct {
	cfg openLoopCfg
	m   *cpu.Machine
	ch  *proc.Chan
	// queue holds admitted requests in arrival order; entries pair 1:1
	// with messages in ch (nil entries are shutdown sentinels).
	queue  []*request
	arrRng *sim.Rand
	cliRng *sim.Rand

	pump         pumpRunner
	pendingClass string   // class name for the outstanding pump event
	reqFree      *request //own:engine request free-list

	delivered int  // base arrivals delivered so far
	baseDone  bool // the pump has finished
	open      int  // attempt chains not yet terminal
	sentinels bool

	// Attempt accounting (aggregate and per class).
	offered, completed, timedOut, shed, retries int64
	shedAdmission, shedFull, shedCodel          int64
	timeoutQueue, timeoutServed                 int64
	timeoutFanout, shedFanout                   int64
	byClass                                     []perClass

	// Fan-out state (fanout.go): record pools, the completed-subtask
	// latency histogram feeding percentile hedges, and subtask-attempt
	// conservation accounting (issued == terminal + outstanding,
	// asserted by the fanout_conservation invariant probe).
	fanFree                          *fanReq     //own:engine
	htFree                           *hedgeTimer //own:engine
	fanLat                           metrics.PctlHist
	fanIssued, fanDone, fanCancelled int64
	fanTimeout, fanShed              int64
	fanHedges, fanHedgeWins          int64
	fanOutstanding                   int64
	fanStraggleSum                   sim.Duration
	fanStages                        int64
}

// installOpenLoopPool wires p's pool into the machine with a budget of
// total base arrivals: handlers under a "server-main" root, the arrival
// pump on the engine, SLO accounting and overload customs published
// when the root exits. The source and admission policy carry state, so
// every run builds its own; both were checked when the preset was
// registered.
func installOpenLoopPool(m *cpu.Machine, p openLoopProfile, total int) *openLoop {
	src, adm, err := p.build()
	if err != nil {
		panic(fmt.Sprintf("workload: open-loop pool: %v", err))
	}
	classes := make([]reqClass, len(p.mix))
	for i, cl := range p.mix {
		classes[i] = reqClass{
			name: cl.name, prio: cl.prio, share: cl.share,
			svc: jitterCycles(m, cl.service, cl.cv),
			// Multi-class pools publish merged customs (finishOn).
			acc: &sloAccum{class: cl.name, slo: cl.slo, quiet: len(p.mix) > 1},
		}
	}
	cfg := openLoopCfg{openLoopProfile: p, total: total, src: src, adm: adm, classes: classes}
	ol := &openLoop{
		cfg:     cfg,
		m:       m,
		ch:      proc.NewChan("requests", cfg.queueDepth),
		arrRng:  sim.NewRand(m.Result().Seed ^ 0x61727276616c2121), // "arrval!!"
		cliRng:  sim.NewRand(m.Result().Seed ^ 0x636c69656e742121), // "client!!"
		byClass: make([]perClass, len(cfg.classes)),
		fanLat:  metrics.NewPctlHist(float64(cfg.hedge.Pct)),
	}
	ol.pump = pumpRunner{ol: ol}
	var actions []proc.Action
	for i := 0; i < cfg.handlers; i++ {
		actions = append(actions, proc.Fork{Name: fmt.Sprintf("handler-%d", i), Behavior: ol.handler()})
	}
	actions = append(actions, proc.WaitChildren{})
	m.Spawn("server-main", proc.Script(actions...))
	for _, cl := range cfg.classes {
		cl.acc.finishOn(m, "server-main")
	}
	if cfg.fan != nil {
		if chk := m.Checker(); chk != nil {
			chk.RegisterProbe("fanout_conservation", ol.fanProbe)
		}
	}
	ol.finishOn()
	ol.scheduleNextArrival()
	return ol
}

// scheduleNextArrival draws the gap to the next base arrival and posts
// it; when the source is exhausted the pump retires.
func (ol *openLoop) scheduleNextArrival() {
	if ol.cfg.total > 0 && ol.delivered >= ol.cfg.total {
		ol.pumpDone()
		return
	}
	gap, class, ok := ol.cfg.src.Next(ol.arrRng)
	if !ok {
		ol.pumpDone()
		return
	}
	// The class-mix draw (classIndex) stays at delivery time, after the
	// gap elapses, preserving the arrival RNG's draw order exactly as
	// the pre-pooling closure did.
	ol.pendingClass = class
	ol.m.Engine().PostRunAfter(gap, &ol.pump)
}

func (ol *openLoop) pumpDone() {
	ol.baseDone = true
	ol.maybeShutdown()
}

// classIndex resolves a trace-supplied class name, or draws from the
// configured mix.
func (ol *openLoop) classIndex(name string) int {
	if name != "" {
		for i := range ol.cfg.classes {
			if ol.cfg.classes[i].name == name {
				return i
			}
		}
	}
	if len(ol.cfg.classes) == 1 {
		return 0
	}
	f := ol.arrRng.Float64()
	acc := 0.0
	for i := range ol.cfg.classes {
		acc += ol.cfg.classes[i].share
		if f < acc {
			return i
		}
	}
	return len(ol.cfg.classes) - 1
}

// deliver runs one attempt through admission into the queue. Called
// from engine context (arrival pump, retry timers).
func (ol *openLoop) deliver(rq *request) {
	now := ol.m.Engine().Now()
	rq.arrived = now
	if ol.cfg.timeout > 0 {
		rq.deadline = now + sim.Time(ol.cfg.timeout)
	}
	if rq.attempt == 0 {
		ol.open++
	}
	ol.offered++
	ol.byClass[rq.class].offered++
	cl := &ol.cfg.classes[rq.class]
	if !ol.cfg.adm.admit(now, cl.prio, len(ol.queue)) {
		ol.settle(rq, outShedAdmission, 0)
		return
	}
	if ol.cfg.fan != nil {
		// Fan-out parents never occupy the queue themselves: admission
		// is request-level, then the stage's subtask attempts carry the
		// work (and the queue entries) from here.
		ol.startFanout(rq)
		return
	}
	if !ol.m.InjectSend(ol.ch, false) {
		if h := ol.m.Obs(); h.Enabled() {
			h.Count("server.queue_full", 1)
		}
		ol.settle(rq, outShedFull, 0)
		return
	}
	rq.enqueued = now
	ol.queue = append(ol.queue, rq)
}

// pop removes the head request (nil = shutdown sentinel).
func (ol *openLoop) pop() (*request, bool) {
	if len(ol.queue) == 0 {
		return nil, false
	}
	rq := ol.queue[0]
	ol.queue[0] = nil
	ol.queue = ol.queue[1:]
	return rq, true
}

// handler returns one pool worker: receive, shed/expire or serve,
// settle, repeat — until the shutdown sentinel.
func (ol *openLoop) handler() proc.Behavior {
	const (
		stRecv = iota
		stPopped
		stServed
	)
	state := stRecv
	var cur *request
	var svcStart sim.Time
	var svc proc.Compute // owned action (see proc.Action)
	return func(t *proc.Task, r *sim.Rand) proc.Action {
		for {
			switch state {
			case stRecv:
				state = stPopped
				return proc.Recv{Ch: ol.ch}
			case stPopped:
				rq, ok := ol.pop()
				if !ok || rq == nil {
					return proc.Exit{} // shutdown sentinel
				}
				now := t.Now
				if rq.fan != nil {
					// Subtask attempt: cancellation and the stage
					// deadline replace CoDel-style dequeue drops.
					if ol.subAtDequeue(rq, now) {
						state = stRecv
						continue
					}
					cur, svcStart = rq, now
					state = stServed
					svc.Cycles = ol.cfg.classes[rq.class].svc(r)
					return &svc
				}
				sojourn := sim.Duration(now - rq.enqueued)
				if ol.cfg.adm.dropAtDequeue(now, sojourn, len(ol.queue)) {
					ol.settle(rq, outShedCodel, sojourn)
					state = stRecv
					continue
				}
				if rq.deadline > 0 && now > rq.deadline {
					ol.settle(rq, outTimeoutQueue, sojourn)
					state = stRecv
					continue
				}
				cur, svcStart = rq, now
				state = stServed
				svc.Cycles = ol.cfg.classes[rq.class].svc(r)
				return &svc
			default: // stServed: the service compute just finished
				rq := cur
				cur = nil
				now := t.Now
				state = stRecv
				if rq.fan != nil {
					ol.subServed(rq, now)
					continue
				}
				if rq.deadline > 0 && now > rq.deadline {
					ol.settle(rq, outTimeoutServed, sim.Duration(now-rq.enqueued))
					continue
				}
				lat := sim.Duration(now - svcStart)
				if ol.cfg.endToEnd {
					lat = sim.Duration(now - rq.arrived)
				}
				ol.cfg.classes[rq.class].acc.record(lat)
				ol.settle(rq, outCompleted, lat)
				continue
			}
		}
	}
}

// settle records an attempt's outcome, schedules a client retry when
// the outcome is retryable and tries remain, and — once the pump is
// done and every chain is terminal — shuts the pool down. Safe from
// both engine and handler context.
func (ol *openLoop) settle(rq *request, outcome int, sojourn sim.Duration) {
	st := &ol.byClass[rq.class]
	switch outcome {
	case outCompleted:
		ol.completed++
		st.completed++
	case outTimeoutQueue:
		ol.timedOut++
		ol.timeoutQueue++
		st.timedOut++
	case outTimeoutServed:
		ol.timedOut++
		ol.timeoutServed++
		st.timedOut++
	case outShedAdmission:
		ol.shed++
		ol.shedAdmission++
		st.shed++
	case outShedFull:
		ol.shed++
		ol.shedFull++
		st.shed++
	case outShedCodel:
		ol.shed++
		ol.shedCodel++
		st.shed++
	case outTimeoutFanout:
		ol.timedOut++
		ol.timeoutFanout++
		st.timedOut++
	case outShedFanout:
		ol.shed++
		ol.shedFanout++
		st.shed++
	}
	cl := &ol.cfg.classes[rq.class]
	if h := ol.m.Obs(); h.Enabled() {
		// Completions go through the event path too (not a bare
		// counter bump) so an offline nestobs report can recompute
		// goodput from the stream alone; Sojourn carries the request
		// latency for completed, the queue delay otherwise.
		h.Emit(obs.Overload{
			T: ol.m.Engine().Now(), Action: outName[outcome], Class: cl.name,
			Policy: ol.cfg.adm.name(), Attempt: rq.attempt, Sojourn: sojourn,
		})
	}
	if outcome != outCompleted && ol.cfg.retries > 0 && rq.attempt < ol.cfg.retries {
		ol.retries++
		st.retries++
		// Exponential backoff with full jitter: mean base<<attempt,
		// drawn from the client RNG so base arrivals stay untouched.
		mean := ol.cfg.backoff << uint(rq.attempt)
		delay := ol.cliRng.Exp(mean) + 1
		if h := ol.m.Obs(); h.Enabled() {
			h.Emit(obs.Overload{
				T: ol.m.Engine().Now(), Action: "retry", Class: cl.name,
				Policy: ol.cfg.adm.name(), Attempt: rq.attempt + 1,
			})
		}
		class, attempt := rq.class, rq.attempt
		ol.freeRequest(rq)
		next := ol.newRequest(class, attempt+1)
		ol.m.Engine().PostRunAfter(delay, next)
		return
	}
	ol.freeRequest(rq)
	ol.open--
	ol.maybeShutdown()
}

// maybeShutdown delivers one sentinel per handler once no more work can
// arrive. Forced sends bypass the queue bound: sentinels must not be
// lost to a saturated queue.
func (ol *openLoop) maybeShutdown() {
	if !ol.baseDone || ol.open != 0 || ol.sentinels {
		return
	}
	ol.sentinels = true
	for i := 0; i < ol.cfg.handlers; i++ {
		ol.queue = append(ol.queue, nil)
		ol.m.InjectSend(ol.ch, true)
	}
}

// finishOn publishes the overload customs when the root task exits.
// Multi-class pools additionally publish merged request percentiles and
// SLO attainment (the per-class accumulators are quiet — see sloAccum).
func (ol *openLoop) finishOn() {
	ol.m.OnExit(func(t *proc.Task) {
		if t.Name != "server-main" {
			return
		}
		res := ol.m.Result()
		if len(ol.cfg.classes) > 1 {
			var merged metrics.LatHist
			var ok, total int64
			for i := range ol.cfg.classes {
				a := ol.cfg.classes[i].acc
				merged.Merge(&a.hist)
				ok += a.ok
				total += a.hist.Count()
			}
			if total > 0 {
				tail := merged.Tail()
				us := func(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }
				res.SetCustom("req_total", float64(total))
				res.SetCustom("req_p50_us", us(tail.P50))
				res.SetCustom("req_p95_us", us(tail.P95))
				res.SetCustom("req_p99_us", us(tail.P99))
				res.SetCustom("req_p999_us", us(tail.P999))
				res.SetCustom("slo_ok", float64(ok))
				res.SetCustom("slo_pct", 100*float64(ok)/float64(total))
			}
		}
		res.SetCustom("ovl_offered", float64(ol.offered))
		res.SetCustom("ovl_completed", float64(ol.completed))
		res.SetCustom("ovl_timeout", float64(ol.timedOut))
		res.SetCustom("ovl_shed", float64(ol.shed))
		res.SetCustom("ovl_retries", float64(ol.retries))
		res.SetCustom("queue_hwm", float64(ol.ch.HighWater))
		base := ol.offered - ol.retries
		if base > 0 {
			res.SetCustom("ovl_amp", float64(ol.offered)/float64(base))
		}
		if secs := ol.m.Engine().Now().Seconds(); secs > 0 {
			res.SetCustom("ovl_goodput", float64(ol.completed)/secs)
		}
		if ol.cfg.fan != nil {
			res.SetCustom("fan_issued", float64(ol.fanIssued))
			res.SetCustom("fan_done", float64(ol.fanDone))
			res.SetCustom("fan_cancelled", float64(ol.fanCancelled))
			res.SetCustom("fan_timeout", float64(ol.fanTimeout))
			res.SetCustom("fan_shed", float64(ol.fanShed))
			res.SetCustom("fan_hedges", float64(ol.fanHedges))
			res.SetCustom("fan_hedge_wins", float64(ol.fanHedgeWins))
			if ol.fanStages > 0 {
				res.SetCustom("fan_straggle_us",
					float64(ol.fanStraggleSum)/float64(ol.fanStages)/float64(sim.Microsecond))
			}
		}
	})
}
