package workload

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Fan-out request topologies: one admitted request spawns W parallel
// subtasks per stage and completes when its aggregation rule is
// satisfied ("all" slots, or a quorum of K). The parent's deadline is
// split into per-stage budgets that propagate to every subtask, slow
// slots are hedged with a duplicate attempt after a deterministic
// delay, and losing hedges / doomed requests cancel their outstanding
// siblings. This is the tail-at-scale serving shape where one
// straggler subtask sets the request's latency — exactly where warm
// cores should pay off — so the robustness mechanisms (hedging,
// deadline budgets, cancellation) are the point. See docs/ROBUSTNESS.md.

// Bounds on the fan-out DSL. Width is capped so one request cannot
// flood the bounded queue past any plausible configuration; stages so
// deadline budgets stay meaningful.
const (
	maxFanWidth  = 1024
	maxFanStages = 16
	maxHedges    = 8
)

// FanoutSpec describes a fan-out topology in a canonical, parseable
// form (see ParseFanoutSpec).
type FanoutSpec struct {
	// Width is the number of parallel subtask slots per stage.
	Width int
	// Stages is the number of sequential fan-out stages.
	Stages int
	// Quorum is the number of slots that must complete per stage;
	// 0 means all Width slots (agg=all).
	Quorum int
}

// ParseFanoutSpec parses the fan-out DSL:
//
//	fanout:width=<W>[,stages=<S>][,agg=all|quorum:<K>]
//
// Stages defaults to 1 and agg to all. Parse and String are mutual
// fixpoints (fuzzed by FuzzParseFanoutSpec).
func ParseFanoutSpec(s string) (*FanoutSpec, error) {
	s = strings.TrimSpace(s)
	head, rest, ok := strings.Cut(s, ":")
	if !ok || head != "fanout" {
		return nil, fmt.Errorf("fanout spec %q: want fanout:width=<W>,stages=<S>,agg=all|quorum:<K>", s)
	}
	sp := &FanoutSpec{Stages: 1}
	err := parseKV(rest, map[string]func(string) error{
		"width":  func(v string) (err error) { sp.Width, err = parseFanInt(v, "width"); return },
		"stages": func(v string) (err error) { sp.Stages, err = parseFanInt(v, "stages"); return },
		"agg": func(v string) error {
			if v == "all" {
				sp.Quorum = 0
				return nil
			}
			k, ok := strings.CutPrefix(v, "quorum:")
			if !ok {
				return fmt.Errorf("bad agg %q (want all or quorum:<K>)", v)
			}
			var err error
			sp.Quorum, err = parseFanInt(k, "quorum")
			return err
		},
	}, "width")
	if err != nil {
		return nil, err
	}
	return sp, sp.Validate()
}

// parseFanInt parses a small positive integer DSL field.
func parseFanInt(s, what string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad %s %q (want a positive integer)", what, s)
	}
	return v, nil
}

// String renders the canonical DSL form (see ParseFanoutSpec).
func (sp *FanoutSpec) String() string {
	agg := "all"
	if sp.Quorum > 0 {
		agg = fmt.Sprintf("quorum:%d", sp.Quorum)
	}
	return fmt.Sprintf("fanout:width=%d,stages=%d,agg=%s", sp.Width, sp.Stages, agg)
}

// Validate checks semantic constraints beyond syntax.
func (sp *FanoutSpec) Validate() error {
	if sp.Width < 1 || sp.Width > maxFanWidth {
		return fmt.Errorf("fanout width %d out of range [1,%d]", sp.Width, maxFanWidth)
	}
	if sp.Stages < 1 || sp.Stages > maxFanStages {
		return fmt.Errorf("fanout stages %d out of range [1,%d]", sp.Stages, maxFanStages)
	}
	if sp.Quorum < 0 || sp.Quorum > sp.Width {
		return fmt.Errorf("fanout quorum %d out of range [1,width=%d]", sp.Quorum, sp.Width)
	}
	return nil
}

// Need returns the number of slots that must complete per stage.
func (sp *FanoutSpec) Need() int {
	if sp.Quorum > 0 {
		return sp.Quorum
	}
	return sp.Width
}

// HedgeKind enumerates the hedge delay policies.
type HedgeKind int

const (
	// HedgeNone never issues hedges.
	HedgeNone HedgeKind = iota
	// HedgeFixed re-issues a slot after a fixed delay.
	HedgeFixed
	// HedgePctl re-issues after the q-th percentile of the completed
	// subtask latencies observed so far in this run (the classic
	// tail-at-scale "hedge after p95"). Until hedgeWarmup completions
	// have been observed no hedges fire.
	HedgePctl
)

// HedgeSpec describes a hedge policy in a canonical, parseable form
// (see ParseHedgeSpec). The zero value is "no hedging".
type HedgeSpec struct {
	Kind HedgeKind
	// After is the fixed delay (HedgeFixed).
	After sim.Duration
	// Pct is the latency percentile in (0,100) (HedgePctl).
	Pct int
	// Max bounds hedges per slot per stage (1..maxHedges).
	Max int
}

// ParseHedgeSpec parses the hedge-policy DSL:
//
//	hedge:none                     never hedge
//	hedge:after=<dur>[,max=<n>]    duplicate a slot after a fixed delay
//	hedge:after=p<q>[,max=<n>]     ... after the q-th pctl of observed latency
//
// Max defaults to 1. Parse and String are mutual fixpoints (fuzzed by
// FuzzParseHedgeSpec).
func ParseHedgeSpec(s string) (*HedgeSpec, error) {
	s = strings.TrimSpace(s)
	head, rest, ok := strings.Cut(s, ":")
	if !ok || head != "hedge" {
		return nil, fmt.Errorf("hedge spec %q: want hedge:none or hedge:after=<dur|p95>,max=<n>", s)
	}
	if rest == "none" {
		return &HedgeSpec{Kind: HedgeNone}, nil
	}
	sp := &HedgeSpec{Max: 1}
	err := parseKV(rest, map[string]func(string) error{
		"after": func(v string) error {
			if q, ok := strings.CutPrefix(v, "p"); ok {
				pct, err := parseFanInt(q, "percentile")
				if err != nil {
					return err
				}
				sp.Kind, sp.Pct = HedgePctl, pct
				return nil
			}
			d, err := parsePosDur(v)
			if err != nil {
				return err
			}
			sp.Kind, sp.After = HedgeFixed, d
			return nil
		},
		"max": func(v string) (err error) { sp.Max, err = parseFanInt(v, "max"); return },
	}, "after")
	if err != nil {
		return nil, err
	}
	return sp, sp.Validate()
}

// String renders the canonical DSL form (see ParseHedgeSpec).
func (sp *HedgeSpec) String() string {
	switch sp.Kind {
	case HedgeFixed:
		return fmt.Sprintf("hedge:after=%s,max=%d", fmtArrDur(sp.After), sp.Max)
	case HedgePctl:
		return fmt.Sprintf("hedge:after=p%d,max=%d", sp.Pct, sp.Max)
	}
	return "hedge:none"
}

// Validate checks semantic constraints beyond syntax.
func (sp *HedgeSpec) Validate() error {
	switch sp.Kind {
	case HedgeNone:
		return nil
	case HedgeFixed:
		if sp.After <= 0 || sp.After > maxArrDur {
			return fmt.Errorf("hedge delay out of range")
		}
	case HedgePctl:
		if sp.Pct < 1 || sp.Pct > 99 {
			return fmt.Errorf("hedge percentile %d out of range [1,99]", sp.Pct)
		}
	default:
		return fmt.Errorf("unknown hedge kind %d", int(sp.Kind))
	}
	if sp.Max < 1 || sp.Max > maxHedges {
		return fmt.Errorf("hedge max %d out of range [1,%d]", sp.Max, maxHedges)
	}
	return nil
}

// hedgeWarmup is how many completed subtask latencies the percentile
// hedge policy observes before it starts firing: hedging off a handful
// of samples would chase noise, and a deterministic threshold keeps the
// delay a pure function of the simulation state (no wall clock, no
// extra RNG draws — base arrivals stay identical across schedulers).
const hedgeWarmup = 64

// Subtask-attempt outcomes. Every issued attempt (primaries and hedges
// alike) terminates in exactly one; the fanout_conservation invariant
// probe holds the workload to that, faults included.
const (
	fsubDone = iota
	fsubCancel
	fsubTimeout
	fsubShed
)

// fsubName maps subtask outcomes to the obs Fanout event's actions.
var fsubName = [...]string{"sub_done", "sub_cancel", "sub_timeout", "sub_shed"}

// fanReq is the fan-out state of one in-flight parent request: the
// current stage's per-slot completion/outstanding/hedge accounting and
// the aggregate terminal bookkeeping. Pooled on the owning openLoop;
// gen detects stale hedge timers against a recycled record.
type fanReq struct {
	ol *openLoop
	// rq is the parent request; nil once the parent settled (completed,
	// or doomed and handed back to the client for retry accounting).
	rq    *request
	class int
	stage int
	// stageStart/stageDeadline delimit the current stage's budget:
	// the parent's remaining deadline split evenly across the stages
	// still to run (0 = no deadline).
	stageStart    sim.Time
	stageDeadline sim.Time
	need          int // slots that must complete this stage
	done          []bool
	outstanding   []int16 // issued, not yet settled, per slot (this stage)
	hedged        []int16 // hedges issued per slot (this stage)
	pending       []int16 // armed hedge timers per slot (this stage)
	doneN, failN  int
	finT          []sim.Time // slot completion times this stage, in order
	open          int        // attempts issued but not settled, all stages
	doomed        bool
	pooled        bool
	gen           uint32
	nextFree      *fanReq
}

// hedgeTimer is a pooled engine callback: when it fires, slot gets a
// duplicate attempt unless the slot (or the whole request) resolved in
// the meantime. gen/stage make stale timers self-detecting.
type hedgeTimer struct {
	ol    *openLoop
	fr    *fanReq
	gen   uint32
	stage int
	slot  int
	next  *hedgeTimer
}

// RunAt implements sim.Runner: the hedge delay elapsed.
func (ht *hedgeTimer) RunAt(now sim.Time) { ht.ol.hedgeFire(ht, now) }

//pool:get
func (ol *openLoop) newFanReq(rq *request) *fanReq {
	fr := ol.fanFree
	if fr == nil {
		fr = &fanReq{ol: ol}
	} else {
		ol.fanFree = fr.nextFree
		fr.nextFree = nil
	}
	w := ol.cfg.fan.Width
	if cap(fr.done) < w {
		fr.done = make([]bool, w)
		fr.outstanding = make([]int16, w)
		fr.hedged = make([]int16, w)
		fr.pending = make([]int16, w)
	}
	fr.done = fr.done[:w]
	fr.outstanding = fr.outstanding[:w]
	fr.hedged = fr.hedged[:w]
	fr.pending = fr.pending[:w]
	fr.resetStage()
	fr.rq, fr.class = rq, rq.class
	fr.stage, fr.open = 0, 0
	fr.need = ol.cfg.fan.Need()
	fr.doomed, fr.pooled = false, false
	return fr
}

// resetStage clears the per-stage slot state.
func (fr *fanReq) resetStage() {
	for i := range fr.done {
		fr.done[i] = false
		fr.outstanding[i] = 0
		fr.hedged[i] = 0
		fr.pending[i] = 0
	}
	fr.doneN, fr.failN = 0, 0
	fr.finT = fr.finT[:0]
}

// maybeFreeFanReq recycles fr once the parent has settled and every
// issued attempt is terminal; gen++ invalidates any hedge timers still
// in flight against the old incarnation.
//
//pool:put
func (ol *openLoop) maybeFreeFanReq(fr *fanReq) {
	if fr.pooled || fr.rq != nil || fr.open != 0 {
		return
	}
	fr.pooled = true
	fr.gen++
	fr.nextFree = ol.fanFree
	ol.fanFree = fr
}

//pool:get
func (ol *openLoop) newHedgeTimer(fr *fanReq, slot int) *hedgeTimer {
	ht := ol.htFree
	if ht == nil {
		ht = &hedgeTimer{ol: ol}
	} else {
		ol.htFree = ht.next
		ht.next = nil
	}
	ht.fr, ht.gen, ht.stage, ht.slot = fr, fr.gen, fr.stage, slot
	return ht
}

//pool:put
func (ol *openLoop) freeHedgeTimer(ht *hedgeTimer) {
	ht.fr = nil
	ht.next = ol.htFree
	ol.htFree = ht
}

// startFanout begins an admitted parent's fan-out lifecycle. The parent
// never occupies the request queue itself; its W subtask attempts do.
func (ol *openLoop) startFanout(rq *request) {
	ol.startStage(ol.newFanReq(rq))
}

// startStage computes the stage's deadline budget — the parent's
// remaining time split evenly across the stages still to run, so the
// last stage's budget is exactly the parent deadline — and issues the
// W primary subtask attempts.
func (ol *openLoop) startStage(fr *fanReq) {
	now := ol.m.Engine().Now()
	fr.stageStart, fr.stageDeadline = now, 0
	if fr.rq.deadline > 0 {
		left := fr.rq.deadline - now
		if left < 0 {
			left = 0
		}
		fr.stageDeadline = now + left/sim.Time(ol.cfg.fan.Stages-fr.stage)
	}
	for slot := 0; slot < ol.cfg.fan.Width; slot++ {
		if fr.rq == nil {
			return // a synchronous shed already doomed the request
		}
		ol.issueSub(fr, slot, 0)
	}
}

// issueSub issues one subtask attempt (hedgeN > 0 for hedges) into the
// bounded queue. The next hedge is armed before the enqueue so a shed
// primary can still be rescued by its hedge.
func (ol *openLoop) issueSub(fr *fanReq, slot, hedgeN int) {
	now := ol.m.Engine().Now()
	att := ol.newRequest(fr.class, 0)
	att.fan, att.slot, att.fstage, att.hedgeN = fr, slot, fr.stage, hedgeN
	att.arrived, att.deadline = now, fr.stageDeadline
	fr.open++
	fr.outstanding[slot]++
	ol.fanIssued++
	ol.fanOutstanding++
	ol.armHedge(fr, slot)
	if !ol.m.InjectSend(ol.ch, false) {
		if h := ol.m.Obs(); h.Enabled() {
			h.Count("server.queue_full", 1)
		}
		ol.settleSub(att, fsubShed, "queue_full", 0)
		return
	}
	att.enqueued = now
	ol.queue = append(ol.queue, att)
}

// armHedge schedules a duplicate attempt for slot after the policy's
// delay, unless the per-slot hedge budget (issued + armed) is spent or
// the percentile policy is still warming up.
func (ol *openLoop) armHedge(fr *fanReq, slot int) {
	hs := &ol.cfg.hedge
	if hs.Kind == HedgeNone || int(fr.hedged[slot])+int(fr.pending[slot]) >= hs.Max {
		return
	}
	delay, ok := ol.hedgeDelay()
	if !ok {
		return
	}
	fr.pending[slot]++
	ol.m.Engine().PostRunAfter(delay, ol.newHedgeTimer(fr, slot))
}

// hedgeDelay returns the current hedge delay. Deterministic: fixed
// delays are config, percentile delays are a pure function of the
// completed-subtask latency histogram — no RNG draws, so the base
// arrival stream stays identical across schedulers and policies.
func (ol *openLoop) hedgeDelay() (sim.Duration, bool) {
	hs := &ol.cfg.hedge
	switch hs.Kind {
	case HedgeFixed:
		return hs.After, true
	case HedgePctl:
		if ol.fanLat.Count() < hedgeWarmup {
			return 0, false
		}
		d := ol.fanLat.Value()
		if d < 1 {
			d = 1
		}
		return d, true
	}
	return 0, false
}

// hedgeFire runs when a hedge timer expires: issue the duplicate, or
// decline if the slot/stage/request resolved (or the stage deadline
// passed) in the meantime. A decline that leaves the slot with no
// outstanding attempts and no armed timers marks the slot failed —
// otherwise a slot whose last attempt already timed out would wait on
// a hedge that never comes.
func (ol *openLoop) hedgeFire(ht *hedgeTimer, now sim.Time) {
	fr, slot := ht.fr, ht.slot
	if fr.gen == ht.gen && fr.stage == ht.stage {
		fr.pending[slot]--
		if !fr.doomed && fr.rq != nil && !fr.done[slot] {
			if fr.stageDeadline == 0 || now < fr.stageDeadline {
				fr.hedged[slot]++
				ol.fanHedges++
				if h := ol.m.Obs(); h.Enabled() {
					h.Emit(obs.Fanout{
						T: now, Action: "hedge", Class: ol.cfg.classes[fr.class].name,
						Stage: fr.stage, Slot: slot, Attempt: int(fr.hedged[slot]),
					})
				}
				ol.issueSub(fr, slot, int(fr.hedged[slot]))
			} else {
				ol.maybeSlotFailed(fr, slot, fsubTimeout)
			}
		}
	}
	ol.freeHedgeTimer(ht)
}

// subStale reports whether a subtask attempt no longer matters and why:
// the request is doomed, already complete, its stage has moved on
// (quorum satisfied without this slot), or a sibling attempt won the
// slot (losing hedge).
func subStale(fr *fanReq, rq *request) (string, bool) {
	switch {
	case fr.doomed:
		return "doomed", true
	case fr.rq == nil:
		return "request_done", true
	case rq.fstage != fr.stage:
		return "stage_over", true
	case fr.done[rq.slot]:
		return "hedge_lost", true
	}
	return "", false
}

// subAtDequeue settles a popped subtask attempt that should not be
// served — cancelled while queued (no work wasted) or past its stage
// deadline. It reports whether the attempt was settled.
func (ol *openLoop) subAtDequeue(rq *request, now sim.Time) bool {
	if cause, stale := subStale(rq.fan, rq); stale {
		ol.settleSub(rq, fsubCancel, cause, 0)
		return true
	}
	if rq.deadline > 0 && now > rq.deadline {
		ol.settleSub(rq, fsubTimeout, "queue", sim.Duration(now-rq.enqueued))
		return true
	}
	return false
}

// subServed settles a subtask attempt whose service just finished:
// completed within the stage budget, served too late, or served for a
// slot/request that resolved meanwhile (wasted work, still cancelled).
func (ol *openLoop) subServed(rq *request, now sim.Time) {
	lat := sim.Duration(now - rq.enqueued)
	if cause, stale := subStale(rq.fan, rq); stale {
		ol.settleSub(rq, fsubCancel, cause, lat)
		return
	}
	if rq.deadline > 0 && now > rq.deadline {
		ol.settleSub(rq, fsubTimeout, "served", lat)
		return
	}
	ol.settleSub(rq, fsubDone, "", lat)
}

// settleSub records one subtask attempt's terminal outcome — exactly
// one per issued attempt — and advances the slot/stage/request state
// machine it feeds.
func (ol *openLoop) settleSub(att *request, outcome int, cause string, lat sim.Duration) {
	fr := att.fan
	now := ol.m.Engine().Now()
	fr.open--
	ol.fanOutstanding--
	switch outcome {
	case fsubDone:
		ol.fanDone++
	case fsubCancel:
		ol.fanCancelled++
	case fsubTimeout:
		ol.fanTimeout++
	case fsubShed:
		ol.fanShed++
	}
	if h := ol.m.Obs(); h.Enabled() {
		h.Emit(obs.Fanout{
			T: now, Action: fsubName[outcome], Class: ol.cfg.classes[att.class].name,
			Stage: att.fstage, Slot: att.slot, Attempt: att.hedgeN, Cause: cause, Lat: lat,
		})
	}
	live := !fr.doomed && fr.rq != nil && att.fstage == fr.stage && !fr.done[att.slot]
	slot, hedgeN := att.slot, att.hedgeN
	ol.freeRequest(att)
	if live {
		fr.outstanding[slot]--
		switch outcome {
		case fsubDone:
			if ol.cfg.hedge.Kind == HedgePctl {
				ol.fanLat.Add(lat)
			}
			ol.slotDone(fr, slot, hedgeN, now)
		case fsubTimeout, fsubShed:
			ol.maybeSlotFailed(fr, slot, outcome)
		}
	}
	ol.maybeFreeFanReq(fr)
}

// slotDone marks a slot complete (first completion wins; a winning
// hedge counts as a hedge win) and advances the stage when the
// aggregation rule is satisfied.
func (ol *openLoop) slotDone(fr *fanReq, slot, hedgeN int, now sim.Time) {
	fr.done[slot] = true
	fr.doneN++
	fr.finT = append(fr.finT, now)
	if hedgeN > 0 {
		ol.fanHedgeWins++
	}
	if fr.doneN >= fr.need {
		ol.stageSatisfied(fr, now)
	}
}

// maybeSlotFailed marks a slot failed once no attempt can complete it
// (nothing outstanding, no hedge armed) and dooms the request when the
// aggregation rule can no longer be met: "all" tolerates zero failed
// slots, quorum:K tolerates Width-K.
func (ol *openLoop) maybeSlotFailed(fr *fanReq, slot, outcome int) {
	if fr.doomed || fr.rq == nil || fr.done[slot] {
		return
	}
	if fr.outstanding[slot] > 0 || fr.pending[slot] > 0 {
		return
	}
	fr.failN++
	if fr.failN > ol.cfg.fan.Width-fr.need {
		ol.doom(fr, outcome)
	}
}

// doom settles a parent whose fan-out can no longer satisfy its
// aggregation rule. The parent settles immediately (the client learns
// now, and may retry); outstanding sibling attempts drain as cancelled
// the moment a handler touches them.
func (ol *openLoop) doom(fr *fanReq, outcome int) {
	fr.doomed = true
	rq := fr.rq
	fr.rq = nil
	out := outTimeoutFanout
	if outcome == fsubShed {
		out = outShedFanout
	}
	now := ol.m.Engine().Now()
	ol.settle(rq, out, sim.Duration(now-rq.arrived))
	ol.maybeFreeFanReq(fr)
}

// stageSatisfied fires when the aggregation rule holds: the request
// completes (last stage) or the next stage starts with a fresh deadline
// budget. Undone slots' outstanding attempts cancel lazily. Straggle is
// the gap between the median slot completion and the one that satisfied
// the rule — the price of waiting for the slowest needed subtask.
func (ol *openLoop) stageSatisfied(fr *fanReq, now sim.Time) {
	straggle := sim.Duration(now - fr.finT[(len(fr.finT)-1)/2])
	ol.fanStraggleSum += straggle
	ol.fanStages++
	if h := ol.m.Obs(); h.Enabled() {
		h.Emit(obs.Fanout{
			T: now, Action: "stage_done", Class: ol.cfg.classes[fr.class].name,
			Stage: fr.stage, Width: ol.cfg.fan.Width,
			Lat: sim.Duration(now - fr.stageStart), Straggle: straggle,
		})
	}
	if fr.stage == ol.cfg.fan.Stages-1 {
		rq := fr.rq
		fr.rq = nil
		lat := sim.Duration(now - rq.arrived)
		ol.cfg.classes[rq.class].acc.record(lat)
		ol.settle(rq, outCompleted, lat)
		ol.maybeFreeFanReq(fr)
		return
	}
	fr.stage++
	fr.resetStage()
	ol.startStage(fr)
}

// fanProbe is the fanout_conservation invariant: every issued subtask
// attempt is either settled in exactly one terminal outcome or still
// outstanding. Registered with the run's invariant.Checker and swept
// after every simulation event, faults included.
func (ol *openLoop) fanProbe() string {
	settled := ol.fanDone + ol.fanCancelled + ol.fanTimeout + ol.fanShed
	if ol.fanOutstanding < 0 || settled+ol.fanOutstanding != ol.fanIssued {
		return fmt.Sprintf("issued %d != done %d + cancelled %d + timeout %d + shed %d + outstanding %d",
			ol.fanIssued, ol.fanDone, ol.fanCancelled, ol.fanTimeout, ol.fanShed, ol.fanOutstanding)
	}
	return ""
}

// ---- Registered fan-out workloads -----------------------------------

// fanoutProfile is the serving shape of the fan-out presets: a
// single-class open-loop pool whose every admitted request fans out
// per the spec, with heavy-tailed subtask service so stragglers exist
// to hedge against.
type fanoutProfile struct {
	handlers   int
	requests   int // base arrivals at paper scale
	queueDepth int
	factor     float64 // offered load as a multiple of nominal capacity
	fan        FanoutSpec
	hedge      HedgeSpec
	service    sim.Duration // mean subtask service time
	cv         float64
	slo        sim.Duration
	timeout    sim.Duration // parent deadline, split across stages
	retries    int
	backoff    sim.Duration
}

// capacityRate returns the pool's nominal throughput in parent requests
// per second: handlers / (stages × width × mean subtask service).
func (p fanoutProfile) capacityRate() float64 {
	per := float64(p.fan.Stages) * float64(p.fan.Width) * float64(p.service)
	return float64(p.handlers) / per * float64(sim.Second)
}

func (p fanoutProfile) install(m *cpu.Machine, scale float64) {
	reqs := scaleCount(p.requests, scale, 50)
	sp := &ArrivalSpec{Kind: ArrPoisson, Rate: p.factor * p.capacityRate()}
	src, err := sp.Source()
	if err != nil {
		panic(fmt.Sprintf("workload: fanout arrival spec: %v", err))
	}
	// Admission caps the subtask backlog: the queue holds subtask
	// attempts, so the limit is expressed in handler multiples.
	adm, err := ParseAdmission(fmt.Sprintf("cap:%d", 6*p.handlers))
	if err != nil {
		panic(fmt.Sprintf("workload: fanout admission spec: %v", err))
	}
	fan := p.fan // copy: install must not mutate the registered template
	installOpenLoopPool(m, openLoopCfg{
		handlers:   p.handlers,
		total:      reqs,
		queueDepth: p.queueDepth,
		src:        src,
		adm:        adm,
		timeout:    p.timeout,
		maxRetries: p.retries,
		backoff:    p.backoff,
		fan:        &fan,
		hedge:      p.hedge,
		classes: []reqClass{{
			name: "fan", prio: 0, share: 1,
			svc: jitterCycles(m, p.service, p.cv),
			slo: p.slo,
			acc: &sloAccum{class: "fan", slo: p.slo},
		}},
		endToEnd: true,
	})
}

// referenceFanout is the preset the fanout/* workloads share; width,
// offered-load factor and hedge policy vary across the grid. Subtask
// service is heavy-tailed (cv 1.5) so one cold or unlucky subtask
// plausibly straggles an entire stage.
func referenceFanout(width int, factor float64, hedge string) fanoutProfile {
	hs := HedgeSpec{Kind: HedgeNone}
	if hedge != "none" {
		parsed, err := ParseHedgeSpec("hedge:after=" + hedge + ",max=1")
		if err != nil {
			panic(fmt.Sprintf("workload: fanout hedge %q: %v", hedge, err))
		}
		hs = *parsed
	}
	return fanoutProfile{
		handlers:   64,
		requests:   20000,
		queueDepth: 8192,
		factor:     factor,
		fan:        FanoutSpec{Width: width, Stages: 2},
		hedge:      hs,
		service:    250 * sim.Microsecond,
		cv:         1.5,
		slo:        8 * msec,
		timeout:    20 * msec,
		retries:    1,
		backoff:    2 * msec,
	}
}

// FanoutWidths, FanoutHedges and FanoutFactors enumerate the registered
// fan-out grid axes; the fanout experiment sweeps them against
// schedulers.
var (
	FanoutWidths  = []int{8, 16}
	FanoutHedges  = []string{"none", "p95"}
	FanoutFactors = []float64{0.7, 1.2}
)

// FanoutMixName returns the registered workload name for one grid cell,
// e.g. "fanout/w16-0.7-p95".
func FanoutMixName(width int, factor float64, hedge string) string {
	return fmt.Sprintf("fanout/w%d-%g-%s", width, factor, hedge)
}

func init() {
	for _, w := range FanoutWidths {
		for _, f := range FanoutFactors {
			for _, hg := range FanoutHedges {
				prof := referenceFanout(w, f, hg)
				register(&Workload{
					Name:         FanoutMixName(w, f, hg),
					Suite:        "fanout",
					PaperSeconds: 1,
					Install:      prof.install,
				})
			}
		}
	}
	// A quorum variant: 12-of-16 with fixed-delay hedges, the classic
	// "good enough" aggregation that tolerates slow shards outright.
	quorum := referenceFanout(16, 0.9, "none")
	quorum.fan.Quorum = 12
	quorum.hedge = HedgeSpec{Kind: HedgeFixed, After: msec, Max: 2}
	register(&Workload{
		Name:         "fanout/quorum",
		Suite:        "fanout",
		PaperSeconds: 1,
		Install:      quorum.install,
	})
}

// RegisterFanoutWorkload registers a custom fan-out serving workload
// (cmd/nestsim -fanout/-hedge) on the reference pool at the given
// offered-load factor.
func RegisterFanoutWorkload(name, fanSpec, hedgeSpec string, factor float64) error {
	fan, err := ParseFanoutSpec(fanSpec)
	if err != nil {
		return err
	}
	hs := &HedgeSpec{Kind: HedgeNone}
	if hedgeSpec != "" {
		if hs, err = ParseHedgeSpec(hedgeSpec); err != nil {
			return err
		}
	}
	if factor <= 0 {
		return fmt.Errorf("workload: fanout load factor %g must be positive", factor)
	}
	if _, err := ByName(name); err == nil {
		return fmt.Errorf("workload: %q already registered", name)
	}
	prof := referenceFanout(fan.Width, factor, "none")
	prof.fan, prof.hedge = *fan, *hs
	register(&Workload{
		Name:         name,
		Suite:        "fanout",
		PaperSeconds: 1,
		Install:      prof.install,
	})
	return nil
}
