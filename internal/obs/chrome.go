package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// ChromeTrace is a Recorder that rebuilds a run's per-core execution
// timeline in the Chrome trace-event format, viewable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. Execution slices become
// duration events on their core's row, placements and migrations
// become instant markers there, and nest expand/compact events a
// "nest size" counter track — so the trace shows not just *where*
// tasks ran but *why* they were put there. Each of the three kinds is
// kept in arrival order.
type ChromeTrace struct {
	name    string
	limit   int
	slices  []ExecSlice
	marks   []chromeEvent // "i" events
	sizes   []chromeEvent // "C" events
	dropped int
}

// NewChromeTrace returns a recorder whose trace labels its single
// process row name ("nest-sim" when empty) and keeps at most limit
// records of each kind — slices, markers, nest-size samples — to bound
// memory (0 = unlimited).
func NewChromeTrace(name string, limit int) *ChromeTrace {
	return &ChromeTrace{name: name, limit: limit}
}

// Record implements Recorder.
func (c *ChromeTrace) Record(ev Event) {
	switch e := ev.(type) {
	case *ExecSlice:
		if !c.full(len(c.slices)) {
			c.slices = append(c.slices, *e)
		}
	case PlacementDecision:
		if !c.full(len(c.marks)) {
			c.marks = append(c.marks, marker(e.T, e.Core, "place "+e.Sched+":"+e.Path, map[string]any{
				"task":    e.Task,
				"scanned": e.Scanned,
				"reason":  e.Reason,
				"fork":    e.Fork,
			}))
		}
	case Migration:
		if !c.full(len(c.marks)) {
			c.marks = append(c.marks, marker(e.T, e.To, fmt.Sprintf("migrate %d→%d", e.From, e.To),
				map[string]any{"task": e.Task, "reason": e.Reason}))
		}
	case NestExpand:
		c.nestSize(e.T, e.Primary, e.Reserve)
	case NestCompact:
		c.nestSize(e.T, e.Primary, e.Reserve)
	}
}

// full reports whether a kind already holding n records is at the cap,
// counting the record that is then dropped.
func (c *ChromeTrace) full(n int) bool {
	if c.limit > 0 && n >= c.limit {
		c.dropped++
		return true
	}
	return false
}

// marker is an instant event pinned to a core's row.
func marker(t sim.Time, core int, name string, args map[string]any) chromeEvent {
	return chromeEvent{Name: name, Ph: "i", TS: micros(t), TID: core, S: "t", Args: args}
}

// nestSize appends one sample of the nest-size counter track.
func (c *ChromeTrace) nestSize(t sim.Time, primary, reserve int) {
	if c.full(len(c.sizes)) {
		return
	}
	c.sizes = append(c.sizes, chromeEvent{
		Name: "nest size", Ph: "C", TS: micros(t),
		Args: map[string]any{"primary": float64(primary), "reserve": float64(reserve)},
	})
}

// Slices returns the number of execution slices kept.
func (c *ChromeTrace) Slices() int { return len(c.slices) }

// Markers returns the number of placement and migration markers kept.
func (c *ChromeTrace) Markers() int { return len(c.marks) }

// Dropped returns how many records of any kind the cap discarded.
func (c *ChromeTrace) Dropped() int { return c.dropped }

// chromeEvent is one entry of the trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// micros converts virtual nanoseconds to the format's microseconds.
func micros(t sim.Time) float64 { return float64(t) / 1e3 }

// WriteJSON writes the trace in the trace-event JSON object format,
// whose displayTimeUnit makes Perfetto show simulated milliseconds.
// Process and thread name metadata ("M") come first, so cores appear as
// named, ordered threads (tid = core) of one named process; then the
// slices ("X", named by task), the markers ("i") and the nest-size
// samples ("C").
func (c *ChromeTrace) WriteJSON(w io.Writer) error {
	name := c.name
	if name == "" {
		name = "nest-sim"
	}
	meta := []chromeEvent{{
		Name: "process_name", Ph: "M",
		Args: map[string]any{"name": name},
	}}
	seen := map[int]bool{}
	nameCore := func(core int) {
		if seen[core] {
			return
		}
		seen[core] = true
		meta = append(meta,
			chromeEvent{
				Name: "thread_name", Ph: "M", TID: core,
				Args: map[string]any{"name": fmt.Sprintf("core %d", core)},
			},
			chromeEvent{
				Name: "thread_sort_index", Ph: "M", TID: core,
				Args: map[string]any{"sort_index": core},
			})
	}
	for _, s := range c.slices {
		nameCore(s.Core)
	}
	for _, m := range c.marks {
		nameCore(m.TID)
	}

	events := make([]chromeEvent, 0, len(meta)+len(c.slices)+len(c.marks)+len(c.sizes))
	events = append(events, meta...)
	for _, s := range c.slices {
		events = append(events, chromeEvent{
			Name: s.TaskName, Ph: "X", TS: micros(s.T), Dur: micros(s.End - s.T), TID: s.Core,
			Args: map[string]any{"task_id": s.Task, "freq_mhz": s.FreqMHz},
		})
	}
	events = append(events, c.marks...)
	events = append(events, c.sizes...)
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
