package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/cpu"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// jsonlGolden is one pinned event stream: a fixed run recorded through
// obs.NewJSONL, with the stream's line count and SHA-256.
type jsonlGolden struct {
	name  string
	spec  RunSpec
	probe bool // register an invariant probe that trips on the first sweep
	lines int
	sum   string
}

// jsonlGoldens pins the JSONL wire format. Together the streams carry
// every event kind: a nest run with 4 ms gauges, a fault plan and a
// tripping invariant probe, plus an overload cell and a hedged fan-out
// cell. Any change to the encoder that moves a byte fails here. The
// gauge stream is pinned in format 2 (core gauges on change);
// TestJSONLGoldenExpand holds its expansion to the full stream.
func jsonlGoldens() []jsonlGolden {
	return []jsonlGolden{
		{
			name: "nest-gauges-faults",
			spec: RunSpec{
				Machine: "5218", Scheduler: "nest", Governor: "schedutil",
				Workload: "dacapo/avrora", Scale: 0.01, Seed: 4,
				SampleEvery: 4 * sim.Millisecond,
				Faults:      "off:c2@5ms+10ms,throttle:s0@4ms+15ms=1.8GHz,jitter:@3ms+20ms=1ms,spike:@6ms=12x1ms",
			},
			probe: true,
			lines: 4957,
			sum:   "aaa1942e6033e0b2f4376785714e1657f6ba3c516fd2016b26d8f758ac644b92",
		},
		{
			name: "overload-codel",
			spec: RunSpec{
				Machine: "6130-2", Scheduler: "cfs", Governor: "schedutil",
				Workload: workload.OverloadMixName(1.5, "codel"), Scale: 0.05, Seed: 7,
			},
			lines: 9417,
			sum:   "f2135c7f932ff404ce24b3e0b5c5c102cbb2d3199afbb1f75b48ba7362f8d5c5",
		},
		{
			name: "fanout-hedged",
			spec: RunSpec{
				Machine: "6130-2", Scheduler: "nest", Governor: "schedutil",
				Workload: workload.FanoutMixName(16, 1.2, "p95"), Scale: 0.02, Seed: 3,
			},
			lines: 15769,
			sum:   "7f817d80b5b5f53a45cd915d24d797eb3ed2553d49fede03c06d0407afb5ce09",
		},
	}
}

// allKinds is every event kind with a JSONL wire form.
var allKinds = []string{
	"run", "placement", "migration", "slice", "nest_expand", "nest_compact",
	"impatience", "freq_grant", "governor_request", "fault",
	"invariant_violation", "tick_balance", "overload", "fanout",
	"core_gauge", "nest_gauge", "socket_gauge", "underload_gauge",
	"run_summary",
}

// recordJSONL runs g's cell with a JSONL recorder attached, and the
// recorders in also beside it through obs.Multi, and returns the stream.
func recordJSONL(t *testing.T, g jsonlGolden, also ...obs.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.NewJSONL(&buf)
	rs := g.spec
	rs.Obs = obs.New(obs.Multi(append([]obs.Recorder{rec}, also...)...))
	if g.probe {
		chk := invariant.New()
		rs.Check = chk
		fired := false
		rs.onStart = func(*cpu.Machine) {
			chk.RegisterProbe("golden_probe", func() string {
				if fired {
					return ""
				}
				fired = true
				return `pinned <probe> & "quoted" \ tab	é`
			})
		}
	}
	if _, err := Run(rs); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJSONLGoldenStreams pins the byte-exact JSONL stream of fixed runs
// and requires the runs, between them, to emit every decodable kind.
func TestJSONLGoldenStreams(t *testing.T) {
	kinds := map[string]bool{}
	for _, g := range jsonlGoldens() {
		b := recordJSONL(t, g)
		lines := bytes.Count(b, []byte("\n"))
		sum := sha256.Sum256(b)
		got := hex.EncodeToString(sum[:])
		if lines != g.lines || got != g.sum {
			t.Errorf("%s: stream is %d lines, sha256 %s; pinned %d lines, sha256 %s",
				g.name, lines, got, g.lines, g.sum)
		}
		if _, err := obs.DecodeStream(bytes.NewReader(b), func(ev obs.Event) {
			kinds[ev.Kind()] = true
		}); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
	}
	var missing []string
	for _, k := range allKinds {
		if !kinds[k] {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("golden streams never emit %v", missing)
	}
}

// fullJSONL is the full-batch encoder: one line per recorded event,
// every core gauge included.
type fullJSONL struct {
	b   []byte
	err error
}

func (f *fullJSONL) Record(ev obs.Event) {
	if f.err == nil {
		f.b, f.err = obs.AppendJSONL(f.b, ev)
	}
}

// TestJSONLGoldenExpand is the oracle for the wire-format-2 pins: each
// golden run is recorded by a JSONL recorder and, beside it, by the
// full-batch encoder, and the recorded stream, decoded, expanded with
// obs.ExpandGauges and re-encoded, must equal the full stream byte for
// byte.
func TestJSONLGoldenExpand(t *testing.T) {
	for _, g := range jsonlGoldens() {
		full := &fullJSONL{}
		b := recordJSONL(t, g, full)
		if full.err != nil {
			t.Fatalf("%s: %v", g.name, full.err)
		}
		var got []byte
		var err error
		if _, derr := obs.DecodeStream(bytes.NewReader(b), obs.ExpandGauges(func(ev obs.Event) {
			if err == nil {
				got, err = obs.AppendJSONL(got, ev)
			}
		})); derr != nil || err != nil {
			t.Fatalf("%s: decode %v, encode %v", g.name, derr, err)
		}
		if !bytes.Equal(got, full.b) {
			t.Errorf("%s: expanded stream (%d lines) differs from the full stream (%d lines)",
				g.name, bytes.Count(got, []byte("\n")), bytes.Count(full.b, []byte("\n")))
		}
	}
}
