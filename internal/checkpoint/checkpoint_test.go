package checkpoint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func tempJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "grid.journal")
}

func TestCreateAppendResume(t *testing.T) {
	path := tempJournal(t)
	j, err := Create(path, "run=fig5 seed=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"aaa", "bbb", "ccc"} {
		if err := j.Append(k, json.RawMessage(`{"cell":"`+k+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Appended() != 3 {
		t.Errorf("Appended = %d, want 3", j.Appended())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rep, err := Resume(path, "run=fig5 seed=1")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep.Records != 3 || len(rep.Done) != 3 || rep.Dropped != 0 {
		t.Fatalf("replay: records=%d done=%d dropped=%d", rep.Records, len(rep.Done), rep.Dropped)
	}
	if string(rep.Done["bbb"]) != `{"cell":"bbb"}` {
		t.Errorf("payload round-trip: %s", rep.Done["bbb"])
	}
}

func TestResumeRejectsWrongScope(t *testing.T) {
	path := tempJournal(t)
	j, err := Create(path, "run=fig5")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, _, err := Resume(path, "run=fig10"); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Fatalf("scope mismatch accepted: %v", err)
	}
}

func TestResumeRejectsWrongSaltAndVersion(t *testing.T) {
	path := tempJournal(t)
	if err := os.WriteFile(path,
		[]byte(`{"kind":"header","version":`+strconv.Itoa(Version)+`,"salt":"other-build","scope":"s"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(path, "s"); err == nil || !strings.Contains(err.Error(), "code version") {
		t.Fatalf("salt mismatch accepted: %v", err)
	}
	if err := os.WriteFile(path,
		[]byte(`{"kind":"header","version":99,"salt":"`+CodeSalt()+`","scope":"s"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(path, "s"); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch accepted: %v", err)
	}
}

func TestReadRejectsMissingHeader(t *testing.T) {
	for name, content := range map[string]string{
		"empty":      "",
		"no-newline": `{"kind":"header","version":1,"salt":"dev","scope":"s"}`,
		"not-json":   "hello world\n",
		"cell-first": `{"kind":"cell","key":"k","result":{}}` + "\n",
	} {
		if _, _, err := Read(strings.NewReader(content)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestResumeRecoversTruncatedTail chops bytes off the final record —
// the signature of a SIGKILL mid-write — and checks the prefix
// survives, the tail is repaired, and appends continue cleanly.
func TestResumeRecoversTruncatedTail(t *testing.T) {
	path := tempJournal(t)
	j, err := Create(path, "s")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"aaa", "bbb", "ccc"} {
		if err := j.Append(k, json.RawMessage(`{"v":"`+k+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rep, err := Resume(path, "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Done) != 2 || rep.Dropped != 1 || len(rep.Warnings) != 1 {
		t.Fatalf("replay after truncation: done=%d dropped=%d warnings=%v", len(rep.Done), rep.Dropped, rep.Warnings)
	}
	// The damaged tail must be gone: appending and re-reading yields a
	// fully valid journal again.
	if err := j2.Append("ddd", json.RawMessage(`{"v":"ddd"}`)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, rep2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Done) != 3 || rep2.Dropped != 0 {
		t.Fatalf("after repair: done=%d dropped=%d", len(rep2.Done), rep2.Dropped)
	}
	if _, ok := rep2.Done["ddd"]; !ok {
		t.Error("appended record missing after repair")
	}
}

func TestReadStopsAtMidFileCorruption(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"kind":"header","version":1,"salt":"dev","scope":"s"}` + "\n")
	b.WriteString(`{"kind":"cell","key":"aaa","result":{"v":1}}` + "\n")
	b.WriteString("GARBAGE NOT JSON\n")
	b.WriteString(`{"kind":"cell","key":"bbb","result":{"v":2}}` + "\n")
	_, rep, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	// Longest valid prefix only: the record after the garbage cannot be
	// trusted (an interrupted write means anything after it is suspect).
	if len(rep.Done) != 1 || rep.Dropped != 2 {
		t.Fatalf("done=%d dropped=%d, want 1 and 2", len(rep.Done), rep.Dropped)
	}
}

func TestReadDuplicateKeysLastWins(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"kind":"header","version":1,"salt":"dev","scope":"s"}` + "\n")
	b.WriteString(`{"kind":"cell","key":"aaa","result":{"v":1}}` + "\n")
	b.WriteString(`{"kind":"cell","key":"aaa","result":{"v":2}}` + "\n")
	_, rep, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || len(rep.Done) != 1 {
		t.Fatalf("records=%d done=%d", rep.Records, len(rep.Done))
	}
	if string(rep.Done["aaa"]) != `{"v":2}` {
		t.Errorf("duplicate resolution kept %s", rep.Done["aaa"])
	}
}

func TestAppendRejectsBadRecords(t *testing.T) {
	j, err := Create(tempJournal(t), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append("", json.RawMessage(`{}`)); err == nil {
		t.Error("empty key accepted")
	}
	if err := j.Append("k", json.RawMessage(`{not json`)); err == nil {
		t.Error("invalid payload accepted")
	}
}
