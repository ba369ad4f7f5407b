package segment

import (
	"os"
	"path/filepath"
	"testing"
)

// outOfOrder is a parseable manifest listing a cube's versions newest
// first — an order Commit never writes.
const outOfOrder = `{"format_version": 1, "cubes": {"wf": [` +
	`{"version": 2, "file": "wf-v000002.seg", "cells": 12}, ` +
	`{"version": 1, "file": "wf-v000001.seg", "cells": 10}]}}`

// TestManifestOutOfOrderFailsClosed: Latest and Restore take a cube's
// last entry as its newest version, so a manifest listing versions
// [2, 1] would restore v1 as live. It is refused as corrupt instead:
// the load falls back to the previous manifest as for a torn file, and
// with no previous one it fails.
func TestManifestOutOfOrderFailsClosed(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest()
	m.Add("wf", CubeVersion{Version: 1, File: "wf-v000001.seg", Cells: 10})
	if err := m.Commit(dir); err != nil {
		t.Fatal(err)
	}
	m.Add("wf", CubeVersion{Version: 2, File: "wf-v000002.seg", Cells: 12})
	if err := m.Commit(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(outOfOrder), 0o644); err != nil {
		t.Fatal(err)
	}
	got, rec, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec {
		t.Fatal("an out-of-order manifest loaded as the live one")
	}
	if lv, ok := got.Latest("wf"); !ok || lv.Version != 1 || len(got.Versions("wf")) != 1 {
		t.Fatalf("recovered %+v, want the previous manifest's v1 alone", got.Versions("wf"))
	}

	alone := t.TempDir()
	if err := os.WriteFile(filepath.Join(alone, ManifestName), []byte(outOfOrder), 0o644); err != nil {
		t.Fatal(err)
	}
	if m, _, err := LoadManifest(alone); err == nil {
		t.Fatalf("an out-of-order manifest with no previous loaded: %+v", m.Cubes)
	}
}

// FuzzLoadManifest loads arbitrary bytes as a data directory's only
// manifest: the result is an error, or a manifest whose every cube
// lists strictly ascending positive versions in plain files of the
// directory, with Latest the maximum.
func FuzzLoadManifest(f *testing.F) {
	m := NewManifest()
	m.Add("wf", CubeVersion{Version: 1, File: "wf-v000001.seg", Cells: 10})
	m.Add("wf", CubeVersion{Version: 2, File: "wf-v000002.seg", Cells: 12})
	m.Add("paper", CubeVersion{Version: 3, File: "paper-v000003.seg", Cells: 5})
	committed := f.TempDir()
	if err := m.Commit(committed); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(committed, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte(outOfOrder))
	f.Add(b[:len(b)/2]) // torn
	// Names that are their own filepath.Base yet no plain file.
	for _, file := range []string{"..", "/"} {
		f.Add([]byte(`{"format_version": 1, "cubes": {"x": [{"version": 1, "file": "` + file + `", "cells": 1}]}}`))
	}

	dir := f.TempDir()
	live := filepath.Join(dir, ManifestName)
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(live, b, 0o644); err != nil {
			t.Fatal(err)
		}
		m, _, err := LoadManifest(dir)
		if err != nil {
			return
		}
		for _, name := range m.Names() {
			vs := m.Versions(name)
			for i, v := range vs {
				if v.Version <= 0 || (i > 0 && v.Version <= vs[i-1].Version) {
					t.Fatalf("cube %q: versions %+v do not strictly ascend from 1", name, vs)
				}
				if v.File == "" || v.File == "." || v.File == ".." || filepath.Dir(v.File) != "." {
					t.Fatalf("cube %q: file %q is not a plain file of the directory", name, v.File)
				}
			}
			if lv, ok := m.Latest(name); len(vs) > 0 && (!ok || lv != vs[len(vs)-1]) {
				t.Fatalf("cube %q: Latest = %+v, versions %+v", name, lv, vs)
			}
		}
	})
}
