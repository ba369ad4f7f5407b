package server

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/obs"
	"whatifolap/internal/segment"
	"whatifolap/internal/workload"
)

// Persister is the catalog's durable storage hook: every published cube
// version is written back to a data directory as one segment file
// (internal/segment) and recorded in the directory's manifest, so a
// restarted daemon restores its catalog — versions included — without
// re-ingesting workload dumps. A version is settled (its chunks' dense,
// sparse or run-encoded form chosen, chunk.Store.Settle) before it is
// published, so the segment records exactly the chunks the catalog
// serves, and the restored version holds the same bytes.
//
// Write-back is asynchronous: Publish/Register return as soon as
// the new version is visible to queries; a background goroutine encodes
// the segment and commits the manifest. Queries never wait on storage,
// and a crash before write-back completes simply loses the not-yet-
// durable version — the manifest commit protocol guarantees the
// directory never names a torn segment as current. Pending() exposes
// the in-flight write-back count (the /metrics writeback_pending
// gauge); Flush blocks until the queue drains.
type Persister struct {
	dir  string
	mmap bool

	// mu serializes manifest mutation + commit across write-backs.
	mu  sync.Mutex
	man *segment.Manifest

	// recovered reports that LoadManifest fell back to the previous
	// manifest (a torn live manifest from a crashed commit).
	recovered bool

	pending atomic.Int64
	wg      sync.WaitGroup

	// errMu guards lastErr, the most recent write-back failure.
	errMu   sync.Mutex
	lastErr error

	// events, when set, receives writeback / writeback_error lifecycle
	// events. Set at startup via SetEventLog, possibly while a
	// write-back Register queued is already running, hence atomic; a
	// nil log is safe to log to.
	events atomic.Pointer[obs.EventLog]
}

// DefaultResidentBudget is the buffer-pool byte budget for cubes
// restored from segment files — the paper's 256 MB cube cache.
const DefaultResidentBudget = 256 << 20

// OpenPersister opens (creating if needed) a data directory and loads
// its manifest, recovering from a torn manifest when possible.
func OpenPersister(dir string, mmap bool) (*Persister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	man, recovered, err := segment.LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	return &Persister{dir: dir, mmap: mmap, man: man, recovered: recovered}, nil
}

// Dir returns the data directory path.
func (p *Persister) Dir() string { return p.dir }

// SetEventLog attaches the structured event log. Call before serving
// (server.New does); write-backs completed earlier are not replayed.
func (p *Persister) SetEventLog(l *obs.EventLog) { p.events.Store(l) }

// Recovered reports that opening fell back to the previous manifest.
func (p *Persister) Recovered() bool { return p.recovered }

// Pending returns the number of write-backs queued or in flight.
func (p *Persister) Pending() int64 { return p.pending.Load() }

// Err returns the most recent write-back failure, if any.
func (p *Persister) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.lastErr
}

// Flush blocks until all queued write-backs have committed, then
// reports the most recent failure, if any.
func (p *Persister) Flush() error {
	p.wg.Wait()
	return p.Err()
}

// Restore loads every cube named in the manifest into the catalog at
// its newest restorable version, returning the restored names.
//
// Recovery is per version, fail-closed per file: a segment that fails
// verification (bad header, bad checksum, truncation) is skipped and
// the next-older version tried — a corrupt newest version degrades to
// the last durable one rather than serving wrong cells. Only when a
// cube has versions on record and none opens does Restore fail: the
// directory claims data it cannot vouch for, and guessing is worse
// than refusing to start.
func (p *Persister) Restore(c *Catalog) ([]string, error) {
	p.mu.Lock()
	names := p.man.Names()
	versions := make(map[string][]segment.CubeVersion, len(names))
	for _, name := range names {
		versions[name] = p.man.Versions(name)
	}
	p.mu.Unlock()

	var restored []string
	for _, name := range names {
		vs := versions[name]
		var lastErr error
		ok := false
		for i := len(vs) - 1; i >= 0; i-- {
			cb, err := p.openVersion(vs[i])
			if err != nil {
				lastErr = err
				continue
			}
			if err := c.RegisterVersion(name, int64(vs[i].Version), cb); err != nil {
				return restored, err
			}
			restored = append(restored, name)
			ok = true
			break
		}
		if !ok && len(vs) > 0 {
			return restored, fmt.Errorf("server: no restorable version of cube %q: %w", name, lastErr)
		}
	}
	sort.Strings(restored)
	return restored, nil
}

// openVersion opens one manifest entry's segment file as a tier-backed
// cube: the schema decodes from the segment's meta blob, the cells stay
// in the file behind the buffer pool.
func (p *Persister) openVersion(v segment.CubeVersion) (*cube.Cube, error) {
	sf, err := segment.Open(filepath.Join(p.dir, v.File), segment.OpenOptions{Mmap: p.mmap})
	if err != nil {
		return nil, err
	}
	cb, err := workload.LoadSchema(bytes.NewReader(sf.Meta()))
	if err != nil {
		sf.Close()
		return nil, fmt.Errorf("server: segment %s schema: %w", v.File, err)
	}
	st, ok := cb.Store().(*chunk.Store)
	if !ok {
		sf.Close()
		return nil, fmt.Errorf("server: segment %s decoded to %T, want chunk store", v.File, cb.Store())
	}
	if err := st.AttachTier(sf, DefaultResidentBudget); err != nil {
		sf.Close()
		return nil, err
	}
	return cb, nil
}

// Enqueue schedules an asynchronous write-back of one published cube
// version. Cubes without chunk-backed storage are skipped — only the
// engine-capable representation has a segment encoding. The cube must
// be published (immutable): the write-back reads it concurrently with
// queries.
func (p *Persister) Enqueue(name string, version int64, cb *cube.Cube) {
	st, ok := cb.Store().(*chunk.Store)
	if !ok {
		return
	}
	p.pending.Add(1)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.pending.Add(-1)
		if err := p.writeback(name, version, cb, st); err != nil {
			p.errMu.Lock()
			p.lastErr = fmt.Errorf("server: write-back %s v%d: %w", name, version, err)
			p.errMu.Unlock()
			p.events.Load().Log("writeback_error", map[string]string{
				"cube":    name,
				"version": fmt.Sprint(version),
				"error":   err.Error(),
			})
			return
		}
		p.events.Load().Log("writeback", map[string]string{
			"cube":    name,
			"version": fmt.Sprint(version),
			"cells":   fmt.Sprint(cb.NumCells()),
		})
	}()
}

// writeback encodes one cube version into a segment file and commits
// the manifest entry. The segment create is atomic (temp + rename), so
// a crash mid-write leaves no partially visible version.
func (p *Persister) writeback(name string, version int64, cb *cube.Cube, st *chunk.Store) error {
	var meta bytes.Buffer
	if err := workload.SaveSchema(cb, &meta); err != nil {
		return err
	}
	file := fmt.Sprintf("%s-v%06d.seg", sanitizeName(name), version)
	path := filepath.Join(p.dir, file)
	err := segment.Create(path, st.Geometry().ChunkCap(), meta.Bytes(), st.ChunkIDs(),
		func(id int) *chunk.Chunk { return st.PeekChunk(id) })
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.man.Add(name, segment.CubeVersion{Version: int(version), File: file, Cells: cb.NumCells()})
	return p.man.Commit(p.dir)
}

// sanitizeName maps a cube name to a filesystem-safe segment file stem.
// Names that needed rewriting get a hash suffix so distinct cube names
// cannot collide on the same file.
func sanitizeName(name string) string {
	out := make([]byte, 0, len(name))
	changed := false
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
			changed = true
		}
	}
	if len(out) == 0 || changed {
		h := fnv.New32a()
		h.Write([]byte(name))
		return fmt.Sprintf("%s-%08x", out, h.Sum32())
	}
	return string(out)
}
