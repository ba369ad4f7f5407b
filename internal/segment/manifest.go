package segment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Manifest commit protocol: the manifest is the data directory's root
// of trust — it names, per cube, the segment files that hold each
// published version. Commit never edits MANIFEST.json in place:
//
//	1. write MANIFEST.json.tmp, fsync, close
//	2. rename MANIFEST.json      -> MANIFEST.json.prev   (if present)
//	3. rename MANIFEST.json.tmp  -> MANIFEST.json
//	4. fsync the directory
//
// A crash at any point leaves either the old manifest, the old one
// under .prev (between 2 and 3), or the new one — never a torn file as
// the live manifest. Load mirrors this: a missing or unparseable
// MANIFEST.json falls back to MANIFEST.json.prev (reporting
// recovered=true); only when both are unusable does it fail, and a
// directory with neither is simply empty. Segment files referenced by
// a manifest are themselves verified at Open time, so a manifest that
// survived a crash but points at a half-written segment still fails
// closed on that version.

const (
	// ManifestName is the live manifest file inside a data directory.
	ManifestName = "MANIFEST.json"
	// ManifestFormatVersion guards against foreign manifest layouts.
	ManifestFormatVersion = 1
)

// CubeVersion names one published version's segment file.
type CubeVersion struct {
	// Version is the catalog version number the segment holds.
	Version int `json:"version"`
	// File is the segment file name, relative to the data directory.
	File string `json:"file"`
	// Cells is the cube's non-null cell count (listing without opening).
	Cells int `json:"cells"`
}

// Manifest is the decoded manifest: versions per cube, ascending.
type Manifest struct {
	FormatVersion int                      `json:"format_version"`
	Cubes         map[string][]CubeVersion `json:"cubes"`
}

// NewManifest returns an empty manifest.
func NewManifest() *Manifest {
	return &Manifest{FormatVersion: ManifestFormatVersion, Cubes: make(map[string][]CubeVersion)}
}

// LoadManifest reads the manifest from dir. A directory without one
// yields an empty manifest; a corrupt live manifest falls back to the
// previous one (recovered=true). Both corrupt is an error — the caller
// must not guess at the catalog.
func LoadManifest(dir string) (m *Manifest, recovered bool, err error) {
	m, err = readManifest(filepath.Join(dir, ManifestName))
	if err == nil {
		return m, false, nil
	}
	if os.IsNotExist(err) {
		// No live manifest: a crash between the two Commit renames
		// leaves the previous one; otherwise the directory is fresh.
		m, perr := readManifest(filepath.Join(dir, ManifestName+".prev"))
		if perr == nil {
			return m, true, nil
		}
		if os.IsNotExist(perr) {
			return NewManifest(), false, nil
		}
		return nil, false, perr
	}
	// Live manifest present but unusable (torn/corrupt): recover from
	// the previous one if it parses.
	if m2, perr := readManifest(filepath.Join(dir, ManifestName+".prev")); perr == nil {
		return m2, true, nil
	}
	return nil, false, fmt.Errorf("segment: manifest unusable and no recoverable previous: %w", err)
}

func readManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("segment: parse %s: %w", path, err)
	}
	if m.FormatVersion != ManifestFormatVersion {
		return nil, fmt.Errorf("segment: %s: format version %d, want %d", path, m.FormatVersion, ManifestFormatVersion)
	}
	if m.Cubes == nil {
		m.Cubes = make(map[string][]CubeVersion)
	}
	// A file must name a plain file of the directory ("..", "." and "/"
	// are their own filepath.Base). Commit writes each cube's versions
	// strictly ascending, and Latest and Restore take the last entry as
	// the newest: any other order is corruption, and the load falls back
	// as for a torn file.
	for name, vs := range m.Cubes {
		for i, v := range vs {
			if v.Version <= 0 || v.File == "" || v.File == "." || v.File == ".." || filepath.Dir(v.File) != "." {
				return nil, fmt.Errorf("segment: %s: bad entry %+v for cube %q", path, v, name)
			}
			if i > 0 && v.Version <= vs[i-1].Version {
				return nil, fmt.Errorf("segment: %s: cube %q lists version %d after %d, not ascending", path, name, v.Version, vs[i-1].Version)
			}
		}
	}
	return &m, nil
}

// Add records a version for a cube, keeping versions ascending and
// replacing any existing entry with the same version number.
func (m *Manifest) Add(name string, v CubeVersion) {
	vs := m.Cubes[name]
	for i := range vs {
		if vs[i].Version == v.Version {
			vs[i] = v
			m.Cubes[name] = vs
			return
		}
	}
	vs = append(vs, v)
	sort.Slice(vs, func(i, j int) bool { return vs[i].Version < vs[j].Version })
	m.Cubes[name] = vs
}

// Latest returns a cube's newest version entry.
func (m *Manifest) Latest(name string) (CubeVersion, bool) {
	vs := m.Cubes[name]
	if len(vs) == 0 {
		return CubeVersion{}, false
	}
	return vs[len(vs)-1], true
}

// Versions returns a cube's version entries, ascending.
func (m *Manifest) Versions(name string) []CubeVersion {
	return append([]CubeVersion(nil), m.Cubes[name]...)
}

// Names returns the cube names in the manifest, sorted.
func (m *Manifest) Names() []string {
	names := make([]string, 0, len(m.Cubes))
	for name := range m.Cubes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Commit atomically replaces dir's manifest with m using the
// temp + fsync + rename protocol documented above.
func (m *Manifest) Commit(dir string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	live := filepath.Join(dir, ManifestName)
	tmp := live + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if _, err := os.Stat(live); err == nil {
		if err := os.Rename(live, live+".prev"); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, live); err != nil {
		return err
	}
	return syncDir(dir)
}
