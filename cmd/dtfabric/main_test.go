package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dtdctcp/internal/baseline"
)

// readReport decodes a dtfabric report file.
func readReport(t *testing.T, path string) baseline.File[Snapshot] {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f baseline.File[Snapshot]
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestQuickRun drives the whole CLI path: a quick leaf-spine pair merged
// into a fresh report file.
func TestQuickRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.json")
	if err := run([]string{"-quick", "-o", path, "-label", "test"}); err != nil {
		t.Fatal(err)
	}
	f := readReport(t, path)
	if f.Schema != schema {
		t.Fatalf("schema %q, want %q", f.Schema, schema)
	}
	if f.Current == nil || len(f.Current.Results) != 2 {
		t.Fatalf("want a DCTCP/DT-DCTCP result pair, got %+v", f.Current)
	}
	for _, res := range f.Current.Results {
		if res.Completed != res.Flows || len(res.Digest) != 16 {
			t.Fatalf("result %s: completed %d/%d, digest %q",
				res.Protocol, res.Completed, res.Flows, res.Digest)
		}
	}
	if f.Current.Label != "test" {
		t.Fatalf("label %q", f.Current.Label)
	}
}

func TestMergeDemotesCurrentToHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.json")
	if err := baseline.Merge(path, schema, &Snapshot{Label: "first"}); err != nil {
		t.Fatal(err)
	}
	if err := baseline.Merge(path, schema, &Snapshot{Label: "second"}); err != nil {
		t.Fatal(err)
	}
	f := readReport(t, path)
	if f.Current.Label != "second" || len(f.History) != 1 || f.History[0].Label != "first" {
		t.Fatalf("merge did not demote: current %q, history %+v", f.Current.Label, f.History)
	}
}

func TestMergeRejectsForeignSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(`{"schema":"dtbench/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := baseline.Merge(path, schema, &Snapshot{}); err == nil {
		t.Fatal("merged into a dtbench file")
	}
}

func TestLoadCDFFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sizes.cdf")
	if err := os.WriteFile(path, []byte("1460 0.5\n29200 1.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := loadCDF(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Points() != 2 {
		t.Fatalf("parsed %d points", c.Points())
	}
	if _, err := loadCDF("no-such-builtin-or-file"); err == nil {
		t.Fatal("resolved a nonexistent CDF")
	}
}

// TestMergeKeepsRetiredFields pins that a merge never drops a recorded
// measurement: a history entry carrying a field Snapshot no longer has
// comes through a -o run byte for byte.
func TestMergeKeepsRetiredFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.json")
	entry := `{
      "label": "old",
      "shards_verified": [
        1,
        2
      ]
    }`
	old := "{\n  \"schema\": \"" + schema + "\",\n  \"current\": null,\n  \"history\": [\n    " + entry + "\n  ]\n}\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		History []json.RawMessage `json:"history"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.History) != 1 || !bytes.Equal(raw.History[0], []byte(entry)) {
		t.Fatalf("history after merge %s, want the entry unchanged:\n%s", raw.History, entry)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"bad matrix":  {"-quick", "-matrix", "butterfly"},
		"bad cdf":     {"-quick", "-cdf", "no-such"},
		"bad topo":    {"-topo", "torus", "-flows", "10"},
		"unknown arg": {"-frobnicate"},
		// Bucket bounds the fabric cannot honour are an error, not a
		// report that echoes them while bucketing at other bounds.
		"large-min below small-max": {"-quick", "-large-min", "50000"},
		"small-max above large-min": {"-quick", "-small-max", "2000000"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
