package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/experiments"
)

// chromeGolden is one pinned output file of the golden -chrometrace run:
// its SHA-256 and its count of trace events per phase ("X" slices, "i"
// decision markers, "C" nest-size samples, "M" name metadata).
type chromeGolden struct {
	file   string
	sum    string
	phases map[string]int
}

// TestChromeTraceGolden pins the bytes of `nestsim -chrometrace t.json
// -runs 2` on a fixed run: micro/hackbench on the 5218 under nest, with
// core 2 hot-unplugged from 5 ms to 15 ms. The plan makes every kind of
// execution slice appear (completion, sleep, exit, tick preemption and
// hotplug eviction), and the second run exercises the private per-repeat
// recorder. Stdout, with its per-run slice and marker totals, is pinned
// too.
func TestChromeTraceGolden(t *testing.T) {
	t.Chdir(t.TempDir())
	rs := experiments.RunSpec{
		Machine: "5218", Scheduler: "nest", Governor: "schedutil",
		Workload: "micro/hackbench", Scale: 0.01, Seed: 1,
		Faults: "off:c2@5ms+10ms",
	}
	out, err := os.Create("stdout.txt")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = runMain(rs, 2, 1, -1, "t.json", "", "", "", false, false)
	os.Stdout = stdout
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	phases := map[string]int{"X": 38134, "i": 75021, "C": 478, "M": 129}
	for _, g := range []chromeGolden{
		{"t.json", "8730a696145198c60527bcacae553719c896f365b49b0501bb0ed00b314f85d7", phases},
		{"t.run2.json", "f4b0a4df4c34e1c51f82337b07154550a81a61a72906190ae0954913b3163c31", phases},
		{"stdout.txt", "1683743031f17298202b5927ada34a0c5cf808348d240854e5609080e4dd25ca", nil},
	} {
		b, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != g.sum {
			t.Errorf("%s: sha256 %s, pinned %s", g.file, got, g.sum)
		}
		if g.phases == nil {
			continue
		}
		var trace struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &trace); err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		got := map[string]int{}
		for _, e := range trace.TraceEvents {
			got[e.Ph]++
		}
		for ph, n := range g.phases {
			if got[ph] != n {
				t.Errorf("%s: %d %q events, pinned %d", g.file, got[ph], ph, n)
			}
		}
		if len(got) != len(g.phases) {
			t.Errorf("%s: phases %v, pinned %v", g.file, got, g.phases)
		}
	}
}
