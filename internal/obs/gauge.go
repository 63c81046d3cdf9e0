package obs

import (
	"strconv"

	"repro/internal/sim"
)

// ---- Gauge events ----------------------------------------------------
//
// The periodic sampler (internal/cpu, Config.SampleEvery) emits one
// batch of gauges per sample instant: a CoreGauge per core in ascending
// core order (an offline core reports state "offline"), one NestGauge
// when the scheduler exposes nest sizes, a SocketGauge per socket in
// ascending socket order, and one UnderloadGauge. The batches ride the
// ordinary event stream, so -events files interleave them with
// decisions and a -series file can carry them alone. A JSONL stream
// leaves out the core gauges that repeat their core's last line
// (expand.go).
//
// Gauges travel as pointers: the sampler emits *CoreGauge and friends
// pointing at a value it reuses for the whole batch, and DecodeLine
// returns the same pointer types, so a recorder's type switch needs one
// pointer case per gauge kind. The methods keep value receivers, so the
// value types still satisfy Event, but no emitter in this repository
// sends them and the recorders' type switches match only the pointers.

// CoreGauge is one core's state at a sample instant: what it is doing
// ("busy", "spin", "idle", "offline"), its current frequency, and its
// run-queue depth (runnable tasks waiting, not counting the running one).
type CoreGauge struct {
	T       sim.Time `json:"t_ns"`
	Core    int      `json:"core"`
	State   string   `json:"state"`
	FreqMHz int      `json:"freq_mhz"`
	Queue   int      `json:"queue"`
}

// Kind implements Event.
func (CoreGauge) Kind() string { return "core_gauge" }

func (CoreGauge) count(c *Counters) { c.bump(cGaugeCore) }

func (e CoreGauge) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"core_gauge"`...), `,"t_ns":`, int64(e.T))
	b = appendInt(b, `,"core":`, int64(e.Core))
	b = appendString(b, `,"state":`, e.State)
	b = appendInt(b, `,"freq_mhz":`, int64(e.FreqMHz))
	b = appendInt(b, `,"queue":`, int64(e.Queue))
	return closeLine(b), nil
}

// NestGauge is the nest's primary and reserve size at a sample instant.
// Emitted only when the active scheduler maintains a nest.
type NestGauge struct {
	T       sim.Time `json:"t_ns"`
	Primary int      `json:"primary"`
	Reserve int      `json:"reserve"`
}

// Kind implements Event.
func (NestGauge) Kind() string { return "nest_gauge" }

func (NestGauge) count(c *Counters) { c.bump(cGaugeNest) }

func (e NestGauge) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"nest_gauge"`...), `,"t_ns":`, int64(e.T))
	b = appendInt(b, `,"primary":`, int64(e.Primary))
	b = appendInt(b, `,"reserve":`, int64(e.Reserve))
	return closeLine(b), nil
}

// SocketGauge is one socket's occupancy at a sample instant: how many of
// its online cores are busy. The busy share is Busy/Online.
type SocketGauge struct {
	T      sim.Time `json:"t_ns"`
	Socket int      `json:"socket"`
	Busy   int      `json:"busy"`
	Online int      `json:"online"`
}

// Kind implements Event.
func (SocketGauge) Kind() string { return "socket_gauge" }

func (SocketGauge) count(c *Counters) { c.bump(cGaugeSocket) }

func (e SocketGauge) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"socket_gauge"`...), `,"t_ns":`, int64(e.T))
	b = appendInt(b, `,"socket":`, int64(e.Socket))
	b = appendInt(b, `,"busy":`, int64(e.Busy))
	b = appendInt(b, `,"online":`, int64(e.Online))
	return closeLine(b), nil
}

// UnderloadGauge is the §5.2 underload of the tick interval that closed
// at T: cores used during the interval minus the most tasks runnable at
// once, floored at zero. It is the last gauge of each batch. With
// SampleEvery longer than one tick it carries only the last interval
// before the sample, not the intervals in between.
type UnderloadGauge struct {
	T         sim.Time `json:"t_ns"`
	Underload int      `json:"underload"`
}

// Kind implements Event.
func (UnderloadGauge) Kind() string { return "underload_gauge" }

func (UnderloadGauge) count(c *Counters) { c.bump(cGaugeUnderload) }

func (e UnderloadGauge) appendJSON(b []byte) ([]byte, error) {
	b = appendInt(append(b, `{"ev":"underload_gauge"`...), `,"t_ns":`, int64(e.T))
	b = appendInt(b, `,"underload":`, int64(e.Underload))
	return closeLine(b), nil
}

// RunSummary closes one run's event stream with its headline results, so
// offline tooling (cmd/nestobs diff) can compare runs without the full
// result encoding. Durations are virtual nanoseconds; the wake
// percentiles are the tail of the result's wake-latency histogram
// (metrics.LatHist).
type RunSummary struct {
	Machine   string  `json:"machine"`
	Scheduler string  `json:"sched"`
	Governor  string  `json:"gov"`
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	RuntimeNS int64   `json:"runtime_ns"`
	EnergyJ   float64 `json:"energy_j"`
	WakeP50   int64   `json:"wake_p50_ns"`
	WakeP95   int64   `json:"wake_p95_ns"`
	WakeP99   int64   `json:"wake_p99_ns"`
	WakeP999  int64   `json:"wake_p999_ns"`
	Wakeups   int64   `json:"wakeups"`
}

// Kind implements Event.
func (RunSummary) Kind() string { return "run_summary" }

func (RunSummary) count(c *Counters) { c.bump(cSummaries) }

func (e RunSummary) appendJSON(b []byte) ([]byte, error) {
	b = appendString(append(b, `{"ev":"run_summary"`...), `,"machine":`, e.Machine)
	b = appendString(b, `,"sched":`, e.Scheduler)
	b = appendString(b, `,"gov":`, e.Governor)
	b = appendString(b, `,"workload":`, e.Workload)
	b = strconv.AppendUint(append(b, `,"seed":`...), e.Seed, 10)
	b = appendInt(b, `,"runtime_ns":`, e.RuntimeNS)
	b, err := appendFloat(b, `,"energy_j":`, e.EnergyJ)
	if err != nil {
		return b, err
	}
	b = appendInt(b, `,"wake_p50_ns":`, e.WakeP50)
	b = appendInt(b, `,"wake_p95_ns":`, e.WakeP95)
	b = appendInt(b, `,"wake_p99_ns":`, e.WakeP99)
	b = appendInt(b, `,"wake_p999_ns":`, e.WakeP999)
	b = appendInt(b, `,"wakeups":`, e.Wakeups)
	return closeLine(b), nil
}
