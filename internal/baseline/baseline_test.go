package baseline

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type snap struct {
	Label string  `json:"label"`
	Value float64 `json:"value,omitempty"`
}

func read(t *testing.T, path string) (File[snap], rawFile) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var typed File[snap]
	var raw rawFile
	if err := json.Unmarshal(data, &typed); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	return typed, raw
}

func TestMergeDemotesCurrentToHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	for _, label := range []string{"first", "second", "third"} {
		if err := Merge(path, "test/v1", &snap{Label: label}); err != nil {
			t.Fatal(err)
		}
	}
	f, _ := read(t, path)
	if f.Schema != "test/v1" || f.Current == nil || f.Current.Label != "third" {
		t.Fatalf("current %+v under schema %q, want third under test/v1", f.Current, f.Schema)
	}
	if len(f.History) != 2 || f.History[0].Label != "first" || f.History[1].Label != "second" {
		t.Fatalf("history %+v, want [first second]", f.History)
	}
}

// TestMergeKeepsUnknownFieldsVerbatim is the reason Merge never decodes
// snapshots: a history entry, and the current snapshot it demotes, may
// carry fields the writing command no longer knows, and both must come
// through a merge byte for byte.
func TestMergeKeepsUnknownFieldsVerbatim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	old := []byte(`{
  "schema": "test/v1",
  "current": {
    "label": "previous",
    "shards_verified": [
      1,
      2
    ]
  },
  "history": [
    {
      "label": "oldest",
      "shard_scaling": [
        {
          "shards": 2,
          "speedup": 0.7
        }
      ],
      "value": 1e-7
    }
  ]
}
`)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, before := read(t, path)
	if err := Merge(path, "test/v1", &snap{Label: "new"}); err != nil {
		t.Fatal(err)
	}
	_, after := read(t, path)
	if len(after.History) != 2 {
		t.Fatalf("history has %d entries, want 2", len(after.History))
	}
	if !bytes.Equal(after.History[0], before.History[0]) {
		t.Fatalf("history entry rewritten:\nbefore %s\nafter  %s", before.History[0], after.History[0])
	}
	var was, now bytes.Buffer
	if err := json.Compact(&was, before.Current); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&now, after.History[1]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(was.Bytes(), now.Bytes()) {
		t.Fatalf("demoted current rewritten:\nbefore %s\nafter  %s", was.Bytes(), now.Bytes())
	}
}

func TestMergeRejectsForeignSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	if err := os.WriteFile(path, []byte(`{"schema":"dtbench/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Merge(path, "dtfabric/v1", &snap{}); err == nil {
		t.Fatal("merged into a file of another schema")
	}
}

func TestMergeAcceptsLegacyFileWithoutSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	if err := os.WriteFile(path, []byte(`{"current":{"label":"legacy"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Merge(path, "test/v1", &snap{Label: "new"}); err != nil {
		t.Fatal(err)
	}
	f, _ := read(t, path)
	if f.Schema != "test/v1" || len(f.History) != 1 || f.History[0].Label != "legacy" {
		t.Fatalf("legacy merge: schema %q, history %+v", f.Schema, f.History)
	}
}

func TestMergeRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Merge(path, "test/v1", &snap{}); err == nil {
		t.Fatal("merged into a corrupt file")
	}
}

func TestMergeReportsUnwritablePath(t *testing.T) {
	dir := t.TempDir()
	if err := Merge(dir, "test/v1", &snap{}); err == nil {
		t.Fatal("merged into a directory")
	}
}
