package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// goldenDiags is a fixed diagnostic set covering both output paths:
// suite findings and an UnusedDirectives pseudo-finding whose rule is
// not in the suite list.
func goldenDiags() []Diagnostic {
	return []Diagnostic{
		{
			Analyzer: "poollife",
			Pos:      token.Position{Filename: "/repo/internal/sim/sim.go", Line: 42, Column: 3},
			Message:  "pooled record n stored to ev.n, which outlives the record's release: copy the needed fields instead of retaining the record",
		},
		{
			Analyzer: "maporder",
			Pos:      token.Position{Filename: "/repo/internal/cpu/cpu.go", Line: 7, Column: 2},
			Message:  "map iteration order is random per run but this loop posts simulator events",
		},
		{
			Analyzer: UnusedDirectiveAnalyzer,
			Pos:      token.Position{Filename: "/repo/internal/workload/fanout.go", Line: 9, Column: 1},
			Message:  "stale //lint:maporder comment: suppresses nothing; delete it",
		},
	}
}

// checkGolden compares got against testdata/golden/<name>, rewriting
// the file when UPDATE_GOLDEN=1 is set in the environment.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestSARIFGolden pins the exact SARIF bytes: rule order (suite order,
// then first-appearance extras), result order (position order), and
// the base-relative slash URIs.
func TestSARIFGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "/repo", Suite(), goldenDiags()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diags.sarif", buf.Bytes())
}

// TestJSONGolden pins the -json encoding the CLI emits for the same
// diagnostics.
func TestJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(goldenDiags()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diags.json", buf.Bytes())
}

// TestSARIFEmpty: a clean run must still be a valid SARIF log with an
// empty results array, not null — consumers reject null.
func TestSARIFEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "", Suite(), nil); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []any `json:"results"`
			Tool    struct {
				Driver struct {
					Rules []any `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("malformed empty log: %s", buf.Bytes())
	}
	if log.Runs[0].Results == nil {
		t.Error("clean run encoded results as null, want []")
	}
	if got, want := len(log.Runs[0].Tool.Driver.Rules), len(Suite()); got != want {
		t.Errorf("driver carries %d rules, want %d (one per suite analyzer)", got, want)
	}
}
