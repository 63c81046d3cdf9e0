// Package obs is the scheduler observability layer: typed decision
// events, a run-wide counter registry, and exporters (JSONL, Prometheus
// text exposition, Chrome/Perfetto traces, ASCII explain summaries).
//
// The paper's argument is diagnostic — Figures 2/3/8/9 explain *which*
// heuristic path dispersed a task and *why* Nest kept it warm — so the
// policies (internal/cfs, internal/core, internal/smove), the runtime
// (internal/cpu) and the frequency model (internal/freqmodel) emit one
// event per decision through a Hub. Everything is zero-overhead when
// disabled: a nil *Hub (or one with no sinks) reports Enabled() == false
// and every call site guards event construction behind that check, so
// benchmark runs allocate exactly as they did before this layer existed.
//
// Emission idiom:
//
//	if h := m.Obs(); h.Enabled() {
//		h.Emit(obs.PlacementDecision{T: m.Now(), Sched: "cfs", ...})
//	}
//
// The per-tick gauges and the execution slices are the bulk of an
// observed stream, so the runtime fills a value it owns and emits a
// pointer to it instead (h.Emit(&g.core), h.Emit(&m.slice)); the
// interface then holds the pointer and nothing is allocated.
//
// A hub, its counter registry and its recorders are driven by one
// goroutine, matching the single-goroutine simulation loop.
package obs

import (
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Event is a typed observation. Each event knows its wire name (Kind)
// and which counters it bumps when recorded.
type Event interface {
	// Kind is the stable wire name used in JSONL output ("placement",
	// "migration", ...).
	Kind() string
	// count applies the event's counter increments to a registry.
	count(c *Counters)
	// appendJSON appends the event's JSONL line, {"ev":"<kind>",...}
	// and a newline, to b. The bytes are exactly what encoding/json
	// would write (see jsonl.go); the only possible error is a float
	// field that is NaN or infinite.
	appendJSON(b []byte) ([]byte, error)
}

// Recorder receives every emitted event. Implementations in this package:
// JSONLRecorder, Explain, ChromeTrace, SeriesBuffer, Trace.
// Recorders run synchronously inside the simulation loop and need not be
// concurrency-safe.
//
// An event is valid only for the duration of Record. The gauge kinds
// and execution slices arrive as pointers (*CoreGauge, *NestGauge,
// *SocketGauge, *UnderloadGauge, *ExecSlice), live and decoded alike,
// and the runtime reuses the pointed-to value for the next event of its
// kind. A recorder that keeps an event past Record must therefore copy
// the value, never the pointer or the interface.
type Recorder interface {
	Record(ev Event)
}

// Hub is the emission point a run hands to the runtime and policies. A
// nil *Hub is a valid, fully disabled hub; all methods are nil-safe.
type Hub struct {
	rec      Recorder
	counters *Counters
	events   int64
}

// New returns a hub with a fresh counter registry fanning events out to
// the given recorders (none is fine: counters alone still aggregate).
func New(recs ...Recorder) *Hub {
	h := &Hub{counters: NewCounters()}
	switch len(recs) {
	case 0:
	case 1:
		h.rec = recs[0]
	default:
		h.rec = Multi(recs...)
	}
	return h
}

// Record implements Recorder, so one hub can feed another: h counts
// and records ev exactly as if it had been emitted to h.
func (h *Hub) Record(ev Event) { h.Emit(ev) }

// Disabled returns a non-nil hub with no sinks. It behaves exactly like
// a nil hub — Enabled() is false and Emit drops everything — and exists
// so tests can prove the disabled fast path adds no allocations.
func Disabled() *Hub { return &Hub{} }

// Enabled reports whether emitting to this hub can have any effect.
// Call sites must construct events only inside an Enabled() guard; that
// is what keeps the disabled path allocation-free.
func (h *Hub) Enabled() bool {
	return h != nil && (h.rec != nil || h.counters != nil)
}

// Emit records ev: counters first, then the recorder chain. Safe on a
// nil or disabled hub (the event is dropped). The hub keeps nothing of
// ev after Emit returns, so the caller may reuse the value a pointer
// event points to (see Recorder).
func (h *Hub) Emit(ev Event) {
	if h == nil {
		return
	}
	recorded := false
	if h.counters != nil {
		ev.count(h.counters)
		recorded = true
	}
	if h.rec != nil {
		h.rec.Record(ev)
		recorded = true
	}
	if recorded {
		h.events++
	}
}

// Count bumps a named counter without going through an event — for
// ad-hoc tallies (e.g. "smove.tick_said_fast"). Nil-safe.
func (h *Hub) Count(name string, n int64) {
	if h == nil || h.counters == nil {
		return
	}
	h.counters.Add(name, n)
}

// Counters returns the hub's registry (nil on a nil/disabled hub).
func (h *Hub) Counters() *Counters {
	if h == nil {
		return nil
	}
	return h.counters
}

// Snapshot returns a copy of the counter registry's current values.
func (h *Hub) Snapshot() map[string]int64 {
	if h == nil || h.counters == nil {
		return nil
	}
	return h.counters.Snapshot()
}

// Events returns the number of events recorded so far.
func (h *Hub) Events() int64 {
	if h == nil {
		return 0
	}
	return h.events
}

// Multi fans events out to several recorders in order.
func Multi(recs ...Recorder) Recorder { return multi(recs) }

type multi []Recorder

func (m multi) Record(ev Event) {
	for _, r := range m {
		r.Record(ev)
	}
}

// ---- Event types ----------------------------------------------------
//
// Field names use JSON tags matching docs/OBSERVABILITY.md; timestamps
// are virtual nanoseconds. Cores and tasks are plain ints so the wire
// format stays self-describing.

// RunInfo labels the start of one run's event stream; multi-run dumps
// (cmd/experiments -events) use it to delimit runs.
type RunInfo struct {
	Machine   string  `json:"machine"`
	Scheduler string  `json:"sched"`
	Governor  string  `json:"gov"`
	Workload  string  `json:"workload"`
	Scale     float64 `json:"scale"`
	Seed      uint64  `json:"seed"`
}

// Kind implements Event.
func (RunInfo) Kind() string { return "run" }

func (RunInfo) count(c *Counters) { c.bump(cRuns) }

func (e RunInfo) appendJSON(b []byte) ([]byte, error) {
	b = appendString(append(b, `{"ev":"run"`...), `,"machine":`, e.Machine)
	b = appendString(b, `,"sched":`, e.Scheduler)
	b = appendString(b, `,"gov":`, e.Governor)
	b = appendString(b, `,"workload":`, e.Workload)
	b, err := appendFloat(b, `,"scale":`, e.Scale)
	if err != nil {
		return b, err
	}
	b = strconv.AppendUint(append(b, `,"seed":`...), e.Seed, 10)
	return closeLine(b), nil
}

// PlacementDecision is one core-selection outcome: which policy, which
// heuristic path fired, what it cost. The counter "<sched>.<path>"
// (e.g. "cfs.idlest_group", "nest.attached") tallies each path. When a
// policy delegates (Nest falling back to CFS, Smove overriding CFS),
// both layers emit: the inner decision first, then the outer one.
type PlacementDecision struct {
	T        sim.Time `json:"t_ns"`
	Sched    string   `json:"sched"`
	Task     int      `json:"task"`
	TaskName string   `json:"task_name,omitempty"`
	Core     int      `json:"chosen_core"`
	Path     string   `json:"path"`
	Scanned  int      `json:"scanned"`
	Reason   string   `json:"reason,omitempty"`
	Fork     bool     `json:"fork,omitempty"`
}

// Kind implements Event.
func (PlacementDecision) Kind() string { return "placement" }

func (e PlacementDecision) count(c *Counters) { c.bumpComposed(famPath, e.Sched, e.Path) }

func (e PlacementDecision) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"placement"`...), `,"t_ns":`, int64(e.T))
	b = appendString(b, `,"sched":`, e.Sched)
	b = appendInt(b, `,"task":`, int64(e.Task))
	if e.TaskName != "" {
		b = appendString(b, `,"task_name":`, e.TaskName)
	}
	b = appendInt(b, `,"chosen_core":`, int64(e.Core))
	b = appendString(b, `,"path":`, e.Path)
	b = appendInt(b, `,"scanned":`, int64(e.Scanned))
	if e.Reason != "" {
		b = appendString(b, `,"reason":`, e.Reason)
	}
	if e.Fork {
		b = append(b, `,"fork":true`...)
	}
	return closeLine(b), nil
}

// Migration is a task starting (or being moved) on a core different from
// its previous one. Reasons: "schedule_in", "smove_timer".
type Migration struct {
	T        sim.Time `json:"t_ns"`
	Task     int      `json:"task"`
	TaskName string   `json:"task_name,omitempty"`
	From     int      `json:"from_core"`
	To       int      `json:"to_core"`
	Reason   string   `json:"reason,omitempty"`
}

// Kind implements Event.
func (Migration) Kind() string { return "migration" }

func (Migration) count(c *Counters) { c.bump(cMigration) }

func (e Migration) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"migration"`...), `,"t_ns":`, int64(e.T))
	b = appendInt(b, `,"task":`, int64(e.Task))
	if e.TaskName != "" {
		b = appendString(b, `,"task_name":`, e.TaskName)
	}
	b = appendInt(b, `,"from_core":`, int64(e.From))
	b = appendInt(b, `,"to_core":`, int64(e.To))
	if e.Reason != "" {
		b = appendString(b, `,"reason":`, e.Reason)
	}
	return closeLine(b), nil
}

// ExecSlice is one contiguous execution of a task on a core, from T to
// End, emitted when the task leaves the core (sleep, block, exit,
// preemption or hotplug eviction). FreqMHz is the core's frequency when
// the slice ended, a cheap summary: frequency can move within a slice.
// Like the gauges it travels as a pointer (*ExecSlice) to a value the
// runtime reuses. It bumps no counter: Counters.CtxSwitches in the
// run's result already tallies context switches.
type ExecSlice struct {
	T        sim.Time `json:"t_ns"`
	End      sim.Time `json:"end_ns"`
	Core     int      `json:"core"`
	Task     int      `json:"task"`
	TaskName string   `json:"task_name,omitempty"`
	FreqMHz  int      `json:"freq_mhz"`
}

// Kind implements Event.
func (ExecSlice) Kind() string { return "slice" }

func (ExecSlice) count(*Counters) {}

func (e ExecSlice) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"slice"`...), `,"t_ns":`, int64(e.T))
	b = appendInt(b, `,"end_ns":`, int64(e.End))
	b = appendInt(b, `,"core":`, int64(e.Core))
	b = appendInt(b, `,"task":`, int64(e.Task))
	if e.TaskName != "" {
		b = appendString(b, `,"task_name":`, e.TaskName)
	}
	b = appendInt(b, `,"freq_mhz":`, int64(e.FreqMHz))
	return closeLine(b), nil
}

// NestExpand is the primary nest growing by one core (§3.1 promotion,
// impatience expansion, or the no-reserve ablation's direct adds).
type NestExpand struct {
	T       sim.Time `json:"t_ns"`
	Core    int      `json:"core"`
	Primary int      `json:"primary"`
	Reserve int      `json:"reserve"`
	Reason  string   `json:"reason,omitempty"`
}

// Kind implements Event.
func (NestExpand) Kind() string { return "nest_expand" }

func (NestExpand) count(c *Counters) { c.bump(cNestExpand) }

func (e NestExpand) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"nest_expand"`...), `,"t_ns":`, int64(e.T))
	b = appendInt(b, `,"core":`, int64(e.Core))
	b = appendInt(b, `,"primary":`, int64(e.Primary))
	b = appendInt(b, `,"reserve":`, int64(e.Reserve))
	if e.Reason != "" {
		b = appendString(b, `,"reason":`, e.Reason)
	}
	return closeLine(b), nil
}

// NestCompact is a primary core demoted (§3.1): To says where it went
// ("reserve" or "evicted"); Reason says why ("idle_timeout", "exit").
type NestCompact struct {
	T       sim.Time `json:"t_ns"`
	Core    int      `json:"core"`
	Primary int      `json:"primary"`
	Reserve int      `json:"reserve"`
	To      string   `json:"to"`
	Reason  string   `json:"reason,omitempty"`
}

// Kind implements Event.
func (NestCompact) Kind() string { return "nest_compact" }

func (NestCompact) count(c *Counters) { c.bump(cNestCompact) }

func (e NestCompact) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"nest_compact"`...), `,"t_ns":`, int64(e.T))
	b = appendInt(b, `,"core":`, int64(e.Core))
	b = appendInt(b, `,"primary":`, int64(e.Primary))
	b = appendInt(b, `,"reserve":`, int64(e.Reserve))
	b = appendString(b, `,"to":`, e.To)
	if e.Reason != "" {
		b = appendString(b, `,"reason":`, e.Reason)
	}
	return closeLine(b), nil
}

// ImpatienceTrip is a task crossing the R_impatient threshold (§3.1):
// its next placement may expand the primary nest.
type ImpatienceTrip struct {
	T        sim.Time `json:"t_ns"`
	Task     int      `json:"task"`
	TaskName string   `json:"task_name,omitempty"`
	Count    int      `json:"count"`
}

// Kind implements Event.
func (ImpatienceTrip) Kind() string { return "impatience" }

func (ImpatienceTrip) count(c *Counters) { c.bump(cNestImpatience) }

func (e ImpatienceTrip) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"impatience"`...), `,"t_ns":`, int64(e.T))
	b = appendInt(b, `,"task":`, int64(e.Task))
	if e.TaskName != "" {
		b = appendString(b, `,"task_name":`, e.TaskName)
	}
	b = appendInt(b, `,"count":`, int64(e.Count))
	return closeLine(b), nil
}

// FreqGrant is the hardware steering a busy core toward a frequency:
// the turbo-budget-limited target the frequency model computed. Reasons:
// "boost" (sub-tick activation ramp), "tick" (periodic update).
type FreqGrant struct {
	T          sim.Time `json:"t_ns"`
	Core       int      `json:"core"`
	GrantMHz   int      `json:"grant_mhz"`
	LimitMHz   int      `json:"limit_mhz"`
	ActivePhys int      `json:"active_phys"`
	Reason     string   `json:"reason,omitempty"`
}

// Kind implements Event.
func (FreqGrant) Kind() string { return "freq_grant" }

func (FreqGrant) count(c *Counters) { c.bump(cFreqGrant) }

func (e FreqGrant) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"freq_grant"`...), `,"t_ns":`, int64(e.T))
	b = appendInt(b, `,"core":`, int64(e.Core))
	b = appendInt(b, `,"grant_mhz":`, int64(e.GrantMHz))
	b = appendInt(b, `,"limit_mhz":`, int64(e.LimitMHz))
	b = appendInt(b, `,"active_phys":`, int64(e.ActivePhys))
	if e.Reason != "" {
		b = appendString(b, `,"reason":`, e.Reason)
	}
	return closeLine(b), nil
}

// GovernorRequest is one governor request for an active core at a tick:
// the OS-side half of frequency selection (§2.3).
type GovernorRequest struct {
	T           sim.Time `json:"t_ns"`
	Core        int      `json:"core"`
	Governor    string   `json:"governor"`
	Util        float64  `json:"util"`
	SuggestMHz  int      `json:"suggest_mhz"`
	FloorMHz    int      `json:"floor_mhz"`
	EnergyAware bool     `json:"energy_aware,omitempty"`
}

// Kind implements Event.
func (GovernorRequest) Kind() string { return "governor_request" }

func (GovernorRequest) count(c *Counters) { c.bump(cGovRequest) }

func (e GovernorRequest) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"governor_request"`...), `,"t_ns":`, int64(e.T))
	b = appendInt(b, `,"core":`, int64(e.Core))
	b = appendString(b, `,"governor":`, e.Governor)
	b, err := appendFloat(b, `,"util":`, e.Util)
	if err != nil {
		return b, err
	}
	b = appendInt(b, `,"suggest_mhz":`, int64(e.SuggestMHz))
	b = appendInt(b, `,"floor_mhz":`, int64(e.FloorMHz))
	if e.EnergyAware {
		b = append(b, `,"energy_aware":true`...)
	}
	return closeLine(b), nil
}

// Fault is an injected fault-plan action taking effect (see
// internal/fault and docs/ROBUSTNESS.md). Actions: "offline", "online",
// "offline_refused" (the runtime refused to kill the last online core),
// "throttle", "unthrottle", "jitter", "spike". Core is -1 for
// socket-level and machine-level actions; Socket is -1 for core-level
// ones.
type Fault struct {
	T      sim.Time `json:"t_ns"`
	Action string   `json:"action"`
	Core   int      `json:"core"`
	Socket int      `json:"socket"`
	CapMHz int      `json:"cap_mhz,omitempty"`
	// Tasks counts evacuated tasks (offline) or spawned tasks (spike).
	Tasks int `json:"tasks,omitempty"`
}

// Kind implements Event.
func (Fault) Kind() string { return "fault" }

func (e Fault) count(c *Counters) { c.bumpComposed(famFault, e.Action, "") }

func (e Fault) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"fault"`...), `,"t_ns":`, int64(e.T))
	b = appendString(b, `,"action":`, e.Action)
	b = appendInt(b, `,"core":`, int64(e.Core))
	b = appendInt(b, `,"socket":`, int64(e.Socket))
	if e.CapMHz != 0 {
		b = appendInt(b, `,"cap_mhz":`, int64(e.CapMHz))
	}
	if e.Tasks != 0 {
		b = appendInt(b, `,"tasks":`, int64(e.Tasks))
	}
	return closeLine(b), nil
}

// InvariantViolation is a structural invariant failing after a
// scheduling event (see internal/invariant). A healthy run — faults or
// not — records zero of these; any occurrence is a bug in a policy or
// the runtime.
type InvariantViolation struct {
	T      sim.Time `json:"t_ns"`
	Rule   string   `json:"rule"`
	Detail string   `json:"detail"`
}

// Kind implements Event.
func (InvariantViolation) Kind() string { return "invariant_violation" }

func (e InvariantViolation) count(c *Counters) {
	c.bump(cInvariantViolation)
	c.bumpComposed(famInvariant, e.Rule, "")
}

func (e InvariantViolation) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"invariant_violation"`...), `,"t_ns":`, int64(e.T))
	b = appendString(b, `,"rule":`, e.Rule)
	b = appendString(b, `,"detail":`, e.Detail)
	return closeLine(b), nil
}

// Overload is one overload-control action at an open-loop server's
// request queue (see docs/ROBUSTNESS.md): Action is "completed"
// (served within its deadline — Sojourn is the request latency),
// "shed_admission" (rejected by the admission policy), "shed_full"
// (bounded queue was full), "shed_codel" (sojourn-time drop at
// dequeue), "timeout_queue" (deadline expired while queued),
// "timeout_served" (served, but past its deadline — wasted work), or
// "retry" (a client retry scheduled after backoff). Class names the
// request class; Policy the admission policy in canonical form;
// Attempt counts client tries (0 = first).
type Overload struct {
	T       sim.Time     `json:"t_ns"`
	Action  string       `json:"action"`
	Class   string       `json:"class"`
	Policy  string       `json:"policy,omitempty"`
	Attempt int          `json:"attempt,omitempty"`
	Sojourn sim.Duration `json:"sojourn_ns,omitempty"`
}

// Kind implements Event.
func (Overload) Kind() string { return "overload" }

func (e Overload) count(c *Counters) {
	switch {
	case strings.HasPrefix(e.Action, "shed"):
		c.bump(cOvlShed)
		c.bumpComposed(famOvlShed, e.Class, "")
		c.bumpComposed(famOvl, e.Action, "")
	case strings.HasPrefix(e.Action, "timeout"):
		c.bump(cOvlTimeout)
		c.bumpComposed(famOvlTimeout, e.Class, "")
		c.bumpComposed(famOvl, e.Action, "")
	case e.Action == "retry":
		c.bump(cOvlRetry)
		c.bumpComposed(famOvlRetry, e.Class, "")
	case e.Action == "completed":
		c.bump(cOvlCompleted)
		c.bumpComposed(famOvlCompleted, e.Class, "")
	default:
		c.bumpComposed(famOvl, e.Action, "")
	}
}

func (e Overload) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"overload"`...), `,"t_ns":`, int64(e.T))
	b = appendString(b, `,"action":`, e.Action)
	b = appendString(b, `,"class":`, e.Class)
	if e.Policy != "" {
		b = appendString(b, `,"policy":`, e.Policy)
	}
	if e.Attempt != 0 {
		b = appendInt(b, `,"attempt":`, int64(e.Attempt))
	}
	if e.Sojourn != 0 {
		b = appendInt(b, `,"sojourn_ns":`, int64(e.Sojourn))
	}
	return closeLine(b), nil
}

// Fanout is one fan-out lifecycle action at an open-loop server (see
// docs/ROBUSTNESS.md): Action is "sub_done" (a subtask attempt
// completed within its stage budget — Lat is its queue+service
// latency; Attempt > 0 means a hedge won the slot), "sub_cancel" (the
// attempt stopped mattering — Cause is "hedge_lost", "stage_over",
// "request_done" or "doomed"; Lat > 0 marks work wasted in service),
// "sub_timeout" (stage deadline blown — Cause "queue" or "served"),
// "sub_shed" (bounded queue full at issue), "hedge" (a duplicate
// attempt issued for a straggling slot — Attempt numbers it), or
// "stage_done" (a stage's aggregation rule satisfied — Lat is the
// stage duration, Straggle the gap from the median slot completion to
// the one that satisfied the rule). Stage/Slot locate the action in
// the fan; Width is the fan width (stage_done only).
type Fanout struct {
	T        sim.Time     `json:"t_ns"`
	Action   string       `json:"action"`
	Class    string       `json:"class"`
	Stage    int          `json:"stage"`
	Slot     int          `json:"slot,omitempty"`
	Attempt  int          `json:"attempt,omitempty"`
	Cause    string       `json:"cause,omitempty"`
	Width    int          `json:"width,omitempty"`
	Lat      sim.Duration `json:"lat_ns,omitempty"`
	Straggle sim.Duration `json:"straggle_ns,omitempty"`
}

// Kind implements Event.
func (Fanout) Kind() string { return "fanout" }

func (e Fanout) count(c *Counters) {
	switch e.Action {
	case "sub_done":
		c.bump(cFanSubDone)
		if e.Attempt > 0 {
			c.bump(cFanHedgeWin)
		}
	case "sub_cancel":
		c.bump(cFanSubCancel)
		c.bumpComposed(famFanCancel, e.Cause, "")
	case "hedge":
		c.bump(cFanHedge)
	default: // sub_timeout, sub_shed, stage_done
		c.bumpComposed(famFan, e.Action, "")
	}
}

func (e Fanout) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"fanout"`...), `,"t_ns":`, int64(e.T))
	b = appendString(b, `,"action":`, e.Action)
	b = appendString(b, `,"class":`, e.Class)
	b = appendInt(b, `,"stage":`, int64(e.Stage))
	if e.Slot != 0 {
		b = appendInt(b, `,"slot":`, int64(e.Slot))
	}
	if e.Attempt != 0 {
		b = appendInt(b, `,"attempt":`, int64(e.Attempt))
	}
	if e.Cause != "" {
		b = appendString(b, `,"cause":`, e.Cause)
	}
	if e.Width != 0 {
		b = appendInt(b, `,"width":`, int64(e.Width))
	}
	if e.Lat != 0 {
		b = appendInt(b, `,"lat_ns":`, int64(e.Lat))
	}
	if e.Straggle != 0 {
		b = appendInt(b, `,"straggle_ns":`, int64(e.Straggle))
	}
	return closeLine(b), nil
}

// TickBalance is a load-balance pull: Kind2 is "newidle" (idle-entry
// pull) or "periodic" (tick-driven balance pass).
type TickBalance struct {
	T        sim.Time `json:"t_ns"`
	From     int      `json:"from_core"`
	To       int      `json:"to_core"`
	Task     int      `json:"task"`
	TaskName string   `json:"task_name,omitempty"`
	Kind2    string   `json:"kind"`
}

// Kind implements Event.
func (TickBalance) Kind() string { return "tick_balance" }

func (e TickBalance) count(c *Counters) { c.bumpComposed(famBalance, e.Kind2, "") }

func (e TickBalance) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"tick_balance"`...), `,"t_ns":`, int64(e.T))
	b = appendInt(b, `,"from_core":`, int64(e.From))
	b = appendInt(b, `,"to_core":`, int64(e.To))
	b = appendInt(b, `,"task":`, int64(e.Task))
	if e.TaskName != "" {
		b = appendString(b, `,"task_name":`, e.TaskName)
	}
	b = appendString(b, `,"kind":`, e.Kind2)
	return closeLine(b), nil
}
