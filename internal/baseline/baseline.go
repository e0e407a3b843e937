// Package baseline maintains the snapshot files the benchmark and
// experiment commands share (dtbench, dtchaos, dtfabric, dthybrid): a
// JSON object {schema, current, history[]} holding the latest snapshot
// plus every snapshot it replaced, oldest first.
//
// Merge keeps the previous current and every history entry as raw JSON,
// so recorded measurements survive byte for byte even after the writing
// command drops or renames a snapshot field.
package baseline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// File is the typed view of a snapshot file, for readers that know the
// snapshot type S. Merge never decodes through it.
type File[S any] struct {
	Schema  string `json:"schema"`
	Current *S     `json:"current"`
	History []S    `json:"history,omitempty"`
}

// rawFile is the on-disk layout with the snapshots left undecoded.
type rawFile struct {
	Schema  string            `json:"schema"`
	Current json.RawMessage   `json:"current"`
	History []json.RawMessage `json:"history,omitempty"`
}

// Merge writes snap as the current snapshot of the file at path and
// moves the previous current to the end of history. A missing file is
// created. A file whose schema is set and differs from schema is
// refused, so one command cannot overwrite another's baseline.
func Merge(path, schema string, snap any) error {
	var f rawFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		if f.Schema != "" && f.Schema != schema {
			return fmt.Errorf("%s has schema %q, want %q", path, f.Schema, schema)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if len(f.Current) > 0 && !bytes.Equal(f.Current, []byte("null")) {
		f.History = append(f.History, f.Current)
	}
	cur, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	f.Schema = schema
	f.Current = cur
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
