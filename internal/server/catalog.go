package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/workload"
)

// Catalog is the serving layer's cube registry: named, versioned,
// reference-counted cubes. Published cube values are immutable — the
// one way a served cube changes is Publish, which a scenario commit
// drives with the scenario's materialized cube as the next version.
// In-flight queries keep the snapshot they acquired, so they see a
// consistent cube for their whole execution while new queries pick up
// the new version.
type Catalog struct {
	mu      sync.RWMutex
	entries map[string]*catalogEntry
	// persister, when set, receives every published version for
	// asynchronous segment write-back. Set once at startup (before the
	// catalog serves) via SetPersister; never swapped while serving.
	persister *Persister
}

// catalogEntry tracks one named cube across versions.
type catalogEntry struct {
	name string
	// publishMu serializes Publish calls per cube, so two commits
	// cannot both check and bump the same base version.
	publishMu sync.Mutex
	// cur is the published version; swapped under Catalog.mu.
	cur *cubeVersion
	// active counts in-flight snapshots across all versions.
	active atomic.Int64
}

// cubeVersion is one immutable published cube.
type cubeVersion struct {
	version int64
	cube    *cube.Cube
}

// Snapshot is a leased reference to one published cube version. Release
// it when the query completes; the cube value stays valid regardless
// (old versions are garbage-collected once unreferenced), but the lease
// keeps the catalog's in-flight accounting honest.
type Snapshot struct {
	Name     string
	Version  int64
	Cube     *cube.Cube
	entry    *catalogEntry
	released atomic.Bool
}

// Release returns the lease. Safe to call more than once.
func (s *Snapshot) Release() {
	if s.entry != nil && s.released.CompareAndSwap(false, true) {
		s.entry.active.Add(-1)
	}
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{entries: make(map[string]*catalogEntry)}
}

// SetPersister attaches the storage write-back hook. Call before the
// catalog starts serving; versions published afterwards — including
// initial Register calls — are persisted asynchronously.
func (c *Catalog) SetPersister(p *Persister) { c.persister = p }

// Persister returns the attached storage hook, or nil.
func (c *Catalog) Persister() *Persister { return c.persister }

// enqueuePersist hands a freshly published version to the persister.
func (c *Catalog) enqueuePersist(name string, version int64, cb *cube.Cube) {
	if c.persister != nil {
		c.persister.Enqueue(name, version, cb)
	}
}

// settle gives a chunk-backed cube's chunks their published
// representation (chunk.Store.Settle) before the version is served or
// written back. A paged cube — a restored one — is settled already.
func settle(cb *cube.Cube) {
	if st, ok := cb.Store().(*chunk.Store); ok {
		st.Settle()
	}
}

// Register publishes a cube under a name at version 1. It settles the
// cube's chunks first, so the served version and the one written back
// hold the same bytes. The caller must not touch the cube afterwards;
// later versions go through Publish.
func (c *Catalog) Register(name string, cb *cube.Cube) error {
	if name == "" {
		return fmt.Errorf("server: empty cube name")
	}
	if cb == nil {
		return fmt.Errorf("server: nil cube for %q", name)
	}
	settle(cb)
	c.mu.Lock()
	if _, dup := c.entries[name]; dup {
		c.mu.Unlock()
		return fmt.Errorf("server: cube %q already registered", name)
	}
	c.entries[name] = &catalogEntry{
		name: name,
		cur:  &cubeVersion{version: 1, cube: cb},
	}
	c.mu.Unlock()
	c.enqueuePersist(name, 1, cb)
	return nil
}

// RegisterVersion publishes a cube under a name at an explicit version
// number — the restore path, where the data directory already holds
// the version and persisting it again would be a wasted rewrite. Like
// Register it settles the cube first, which converts nothing on a cube
// restored from its segment.
func (c *Catalog) RegisterVersion(name string, version int64, cb *cube.Cube) error {
	if name == "" {
		return fmt.Errorf("server: empty cube name")
	}
	if cb == nil {
		return fmt.Errorf("server: nil cube for %q", name)
	}
	if version <= 0 {
		return fmt.Errorf("server: cube %q version must be positive, got %d", name, version)
	}
	settle(cb)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[name]; dup {
		return fmt.Errorf("server: cube %q already registered", name)
	}
	c.entries[name] = &catalogEntry{
		name: name,
		cur:  &cubeVersion{version: version, cube: cb},
	}
	return nil
}

// LoadFile loads a cube dump (text or binary workload format) and
// registers it under the name. Text dumps get chunked storage with
// default edges so the perspective-cube engine applies.
func (c *Catalog) LoadFile(name, path string) error {
	cb, err := workload.LoadFile(path, []int{})
	if err != nil {
		return fmt.Errorf("server: loading %q: %w", path, err)
	}
	return c.Register(name, cb)
}

// Acquire leases the current version of the named cube.
func (c *Catalog) Acquire(name string) (*Snapshot, error) {
	c.mu.RLock()
	e, ok := c.entries[name]
	var cur *cubeVersion
	if ok {
		cur = e.cur
	}
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("server: unknown cube %q", name)
	}
	e.active.Add(1)
	return &Snapshot{Name: name, Version: cur.version, Cube: cur.cube, entry: e}, nil
}

// ErrVersionConflict reports a Publish whose expected base version no
// longer matches the published one — the cube moved underneath the
// scenario since it was created.
var ErrVersionConflict = fmt.Errorf("server: cube version conflict")

// Publish installs a pre-built cube as the next version of the named
// entry — the scenario commit path, where the cube to publish is the
// materialized scenario, a new cube that shares no storage with the
// current version and whose chunks chunk.Chain.Flatten settled. It is
// the only way a registered cube changes.
// When want is non-zero the publish is optimistic: it fails with
// ErrVersionConflict unless the current version still equals want, so
// a scenario pinned to a stale base cannot silently overwrite versions
// published after it forked off.
func (c *Catalog) Publish(name string, want int64, next *cube.Cube) (int64, error) {
	if next == nil {
		return 0, fmt.Errorf("server: publish of %q with no cube", name)
	}
	c.mu.RLock()
	e, ok := c.entries[name]
	c.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("server: unknown cube %q", name)
	}
	e.publishMu.Lock()
	defer e.publishMu.Unlock()

	c.mu.RLock()
	base := e.cur
	c.mu.RUnlock()
	if want != 0 && base.version != want {
		return 0, fmt.Errorf("%w: %q is at version %d, scenario base is %d", ErrVersionConflict, name, base.version, want)
	}
	nv := &cubeVersion{version: base.version + 1, cube: next}
	c.mu.Lock()
	e.cur = nv
	c.mu.Unlock()
	c.enqueuePersist(name, nv.version, next)
	return nv.version, nil
}

// CubeInfo describes one catalog entry for /cubes.
type CubeInfo struct {
	Name       string   `json:"name"`
	Version    int64    `json:"version"`
	Dimensions []string `json:"dimensions"`
	Cells      int      `json:"cells"`
	InFlight   int64    `json:"in_flight"`
}

// List describes all entries, sorted by name.
func (c *Catalog) List() []CubeInfo {
	c.mu.RLock()
	entries := make([]*catalogEntry, 0, len(c.entries))
	for _, e := range c.entries {
		entries = append(entries, e)
	}
	c.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	out := make([]CubeInfo, 0, len(entries))
	for _, e := range entries {
		c.mu.RLock()
		cur := e.cur
		c.mu.RUnlock()
		dims := make([]string, cur.cube.NumDims())
		for i := range dims {
			dims[i] = cur.cube.Dim(i).Name()
		}
		out = append(out, CubeInfo{
			Name:       e.name,
			Version:    cur.version,
			Dimensions: dims,
			Cells:      cur.cube.NumCells(),
			InFlight:   e.active.Load(),
		})
	}
	return out
}

// PoolStats sums buffer-pool statistics over the current version of
// every cube with chunk-backed storage — the live resident set behind
// the /metrics pool gauges and the history collector's pressure
// tracking. Superseded versions still leased by in-flight queries are
// not counted; their pools drain as the leases release.
func (c *Catalog) PoolStats() chunk.SpillStats {
	c.mu.RLock()
	curs := make([]*cubeVersion, 0, len(c.entries))
	for _, e := range c.entries {
		curs = append(curs, e.cur)
	}
	c.mu.RUnlock()
	var total chunk.SpillStats
	for _, cv := range curs {
		st, ok := cv.cube.Store().(*chunk.Store)
		if !ok {
			continue
		}
		ps := st.SpillStats()
		total.Resident += ps.Resident
		total.Spilled += ps.Spilled
		total.Faults += ps.Faults
		total.Evictions += ps.Evictions
		total.Pinned += ps.Pinned
		total.Leased += ps.Leased
		total.Recycled += ps.Recycled
		total.ResidentBytes += ps.ResidentBytes
	}
	return total
}

// Names returns the registered cube names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.entries))
	for n := range c.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
