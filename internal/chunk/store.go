package chunk

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"whatifolap/internal/cube"
)

// Store is a chunked-array cell store. It implements cube.Store, so a
// cube can be backed by chunked storage transparently, and additionally
// exposes chunk-level access used by the perspective-cube engine:
// enumeration in a dimension order, per-chunk reads with read
// accounting, and eviction.
//
// Concurrency: a fully loaded store is safe for concurrent *readers*
// (Get, ReadChunk, PeekChunk, NonNull, ChunkIDs, SpillStats, Pin,
// Unpin, and Leases, each used by one goroutine) — read accounting is
// atomic, the read hook is swapped
// atomically (SetReadHook is safe against concurrent readers), and
// segment fault-ins go through the buffer pool, which overlaps distinct
// chunks' I/O and deduplicates same-chunk faults. Mutation (Set,
// PutChunk, the representation sweeps, AttachTier) must not race with
// readers. A store with a tier is read-only — Set and PutChunk panic —
// so a published cube changes only by publishing a new version, and
// the serving layer's concurrent queries lean on the concurrent-reader
// guarantee.
type Store struct {
	geom   *Geometry
	chunks map[int]*Chunk // resident chunks by canonical ID

	// reads counts chunk reads (ReadChunk calls); the engine and the
	// co-location experiment use it to account I/O.
	reads atomic.Int64
	// readHook, when set, observes every chunk read with its canonical
	// ID. The pointer is accessed atomically so SetReadHook never races
	// a concurrent reader; the hook itself is invoked under hookMu, so
	// hook state needs no synchronization of its own.
	readHook atomic.Pointer[func(id int)]
	// hookMu serializes read-hook invocations (callReadHook). It is
	// deliberately separate from mu: a slow hook must not block other
	// queries' pool fault-ins.
	hookMu sync.Mutex
	// pool, when non-nil, drops least-recently-used chunks and faults
	// them back from a backing Tier (an immutable segment file) so the
	// resident set fits a memory budget. It makes the store read-only.
	pool *bufferPool
	// mu guards the resident chunk map and the buffer-pool bookkeeping
	// (recency list, pins, byte total) whenever a tier is attached.
	// Fault-in I/O runs outside it — see poolGet.
	mu sync.Mutex
	// ids caches what ChunkIDs computes, nil when stale: every plan asks
	// for the sorted IDs, and they change only where a chunk ID is
	// created or deleted (Set, PutChunk, AttachTier) — paging a chunk
	// between the resident map and the tier keeps the set as it is.
	// Atomic because concurrent readers may fill it at once.
	ids atomic.Pointer[[]int]
}

// NewStore creates an empty chunked store with the given geometry.
func NewStore(geom *Geometry) *Store {
	return &Store{geom: geom, chunks: make(map[int]*Chunk)}
}

// Geometry returns the store's chunking geometry.
func (s *Store) Geometry() *Geometry { return s.geom }

// SetReadHook installs fn to observe chunk reads. Pass nil to remove.
// The swap is atomic, so installing or removing a hook never races
// concurrent readers; reads in flight may still invoke the previous
// hook once.
func (s *Store) SetReadHook(fn func(id int)) {
	if fn == nil {
		s.readHook.Store(nil)
		return
	}
	s.readHook.Store(&fn)
}

// Reads returns the number of chunk reads so far.
func (s *Store) Reads() int { return int(s.reads.Load()) }

// ResetReads clears the read counter.
func (s *Store) ResetReads() { s.reads.Store(0) }

// Get implements cube.Store. Uses the fused SplitID so a point read
// allocates nothing — scenario layer chains fall through here once per
// unoverridden cell.
func (s *Store) Get(addr []int) float64 {
	id, off := s.geom.SplitID(addr)
	c := s.chunkAt(id)
	if c == nil {
		return math.NaN()
	}
	return c.Get(off)
}

// Set implements cube.Store. It panics on a paged store.
func (s *Store) Set(addr []int, v float64) {
	s.mustBeWritable()
	ccoord := make([]int, s.geom.NumDims())
	off := s.geom.Split(addr, ccoord)
	id := s.geom.CanonicalID(ccoord)
	c := s.chunks[id]
	if c == nil {
		if math.IsNaN(v) {
			return
		}
		c = NewSparse(s.geom.ChunkCap())
		s.chunks[id] = c
		s.ids.Store(nil)
	}
	c.Set(off, v)
	if c.Len() == 0 {
		delete(s.chunks, id)
		s.ids.Store(nil)
	}
}

// mustBeWritable panics on a store with a tier: its chunks are the
// tier's, and the tier never changes.
func (s *Store) mustBeWritable() {
	if s.pool != nil {
		panic("chunk: a paged store is read-only")
	}
}

// NonNull implements cube.Store. Chunks are visited in canonical ID
// order; cells within a chunk in offset order, so iteration is
// deterministic. Spilled chunks are faulted in as they are reached.
func (s *Store) NonNull(fn func(addr []int, v float64) bool) {
	ids := s.ChunkIDs()
	addr := make([]int, s.geom.NumDims())
	ccoord := make([]int, s.geom.NumDims())
	for _, id := range ids {
		c := s.chunkAt(id)
		if c == nil {
			continue
		}
		s.geom.CoordOf(id, ccoord)
		stop := false
		c.ForEach(func(off int, v float64) bool {
			s.geom.Join(ccoord, off, addr)
			if !fn(addr, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Len implements cube.Store. A paged store sizes its chunks from the
// tier's index without loading them.
func (s *Store) Len() int {
	n := 0
	if p := s.pool; p != nil {
		for _, id := range p.tier.IDs() {
			n += p.tier.Cells(id)
		}
		return n
	}
	for _, c := range s.chunks {
		n += c.Len()
	}
	return n
}

// Clone implements cube.Store. The clone is resident and writable: a
// paged store's chunks are faulted through the pool and copied.
func (s *Store) Clone() cube.Store {
	out := NewStore(s.geom)
	for _, id := range s.ChunkIDs() {
		if c := s.chunkAt(id); c != nil {
			out.chunks[id] = c.Clone()
		}
	}
	return out
}

// Flatten copies the chain's resolved view into a fresh store under
// geom, which owns every chunk it holds, and settles each chunk it
// builds, so the store is ready to publish. An engine-capable chain
// whose geometry is geom's goes a chunk at a time through Resolve —
// untouched chunks are cloned from the base, touched ones resolved
// densely — so a commit costs what the cube's chunks cost to copy, not
// two map probes per layer per cell. Any other chain (wider layers, a
// base that is not chunk-backed) is copied cell by cell through
// NonNull.
func (c *Chain) Flatten(geom *Geometry) *Store {
	out := NewStore(geom)
	if !c.EngineCapable() || !sameGeometry(geom, c.baseChunks.geom) {
		c.NonNull(func(addr []int, v float64) bool {
			out.Set(addr, v)
			return true
		})
		out.Settle()
		return out
	}
	scratch := NewDense(geom.ChunkCap())
	for _, id := range append(c.baseChunks.ChunkIDs(), c.LayerChunkIDs()...) {
		if out.chunks[id] != nil {
			continue // named by the base and by a layer
		}
		if ch := c.Resolve(id, c.baseChunks.PeekChunk(id), scratch); ch != nil {
			ch = ch.Clone()
			ch.Settle()
			out.PutChunk(id, ch)
		}
	}
	return out
}

// ChunkIDs returns the canonical IDs of the materialized chunks —
// a paged store's are its tier's — sorted. The slice is the caller's
// own; the sort behind it is cached until an ID comes or goes, so a
// plan over an unchanged store pays one copy and no lock.
func (s *Store) ChunkIDs() []int {
	if ids := s.ids.Load(); ids != nil {
		return slices.Clone(*ids)
	}
	var ids []int
	if p := s.pool; p != nil {
		ids = p.tier.IDs()
	} else {
		ids = make([]int, 0, len(s.chunks))
		for id := range s.chunks {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	s.ids.Store(&ids)
	return slices.Clone(ids)
}

// NumChunks returns the number of materialized chunks, resident or
// tier-held.
func (s *Store) NumChunks() int {
	if p := s.pool; p != nil {
		return len(p.tier.IDs())
	}
	return len(s.chunks)
}

// ReadInfo attributes one chunk read to the query that issued it: on a
// pooled store, what the buffer pool did to satisfy the read. The
// engine turns faulted reads into trace spans and per-query statistics.
type ReadInfo struct {
	// Faulted reports that the chunk was loaded from the backing tier.
	Faulted bool
	// FaultMs is the wall time of the fault-in I/O and decode (0 on a
	// pool hit or an unpooled store).
	FaultMs float64
	// Evictions counts chunks this read's fault-in pushed out of the
	// resident set to make room.
	Evictions int
	// Pinned reports that the chunk was pinned at read time (a merge
	// partner protected it against eviction).
	Pinned bool
}

// ReadError is a chunk read the backing tier could not serve: the
// chunk's canonical ID and the tier's error, which for a segment file
// names the file and the slot.
type ReadError struct {
	ID  int
	Err error
}

func (e *ReadError) Error() string { return fmt.Sprintf("chunk: read of chunk %d: %v", e.ID, e.Err) }

func (e *ReadError) Unwrap() error { return e.Err }

// ReadChunk fetches the chunk with the given canonical ID, counting the
// read and notifying the read hook. A nil return means the chunk is
// empty (not materialized). The read is unleased: the caller may keep
// the chunk as long as it likes, so on a paged store its frame is never
// reused. A tier fault panics: ReadChunk serves readers that cannot
// return an error; the engine reads through a Lease.
func (s *Store) ReadChunk(id int) *Chunk {
	c, _, err := s.read(id, nil)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// Read is the engine's chunk read: ReadChunk with per-read attribution
// — the buffer pool's hit/fault/eviction/pin outcome for exactly this
// read, from which the engine builds per-fault trace spans rather than
// from global counters, so concurrent queries never absorb each other's
// I/O — and leased. It first gives back the chunk the lease held; the
// chunk it returns is the caller's until the next Read or Release, and
// no fault reuses its frame before then. A fault the tier fails is
// returned as a *ReadError, and the lease then holds nothing.
func (l *Lease) Read(id int) (*Chunk, ReadInfo, error) { return l.s.read(id, l) }

// read counts a chunk read, notifies the read hook and fetches the
// chunk: on a paged store through the pool, leased to l or, when l is
// nil, escaped.
func (s *Store) read(id int, l *Lease) (*Chunk, ReadInfo, error) {
	s.reads.Add(1)
	if rh := s.readHook.Load(); rh != nil {
		s.callReadHook(id, *rh)
	}
	if s.pool == nil {
		return s.chunks[id], ReadInfo{}, nil
	}
	c, fi, err := s.poolGet(id, l)
	if err != nil {
		return nil, ReadInfo{}, &ReadError{ID: id, Err: err}
	}
	return c, ReadInfo{Faulted: fi.faulted, FaultMs: fi.faultMs, Evictions: fi.evictions, Pinned: fi.pinned}, nil
}

// callReadHook invokes the read hook under hookMu. The deferred unlock
// releases hookMu even when the hook panics, so a recovered panic
// cannot wedge the next hooked read.
func (s *Store) callReadHook(id int, fn func(int)) {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	fn(id)
}

// PeekChunk fetches a chunk without read accounting (metadata scans).
// Spilled chunks still fault in, and, as with ReadChunk, the caller may
// keep the chunk: on a paged store its frame is never reused.
func (s *Store) PeekChunk(id int) *Chunk { return s.chunkAt(id) }

// PutChunk installs a chunk at the given canonical ID, replacing any
// existing chunk. A nil or empty chunk deletes the slot. The chunk's
// capacity must match the geometry's chunk capacity; a mismatch would
// corrupt offset decoding. It panics on a paged store.
func (s *Store) PutChunk(id int, c *Chunk) {
	s.mustBeWritable()
	if id < 0 || id >= s.geom.NumChunks() {
		panic(fmt.Sprintf("chunk: PutChunk id %d out of range [0,%d)", id, s.geom.NumChunks()))
	}
	s.ids.Store(nil)
	if c == nil || c.Len() == 0 {
		delete(s.chunks, id)
		return
	}
	if c.Cap() != s.geom.ChunkCap() {
		panic(fmt.Sprintf("chunk: PutChunk capacity %d does not match geometry chunk capacity %d", c.Cap(), s.geom.ChunkCap()))
	}
	s.chunks[id] = c
}

// MemBytes estimates the store's resident size.
func (s *Store) MemBytes() int {
	n := 0
	for _, c := range s.chunks {
		n += c.MemBytes()
	}
	return n
}

// convertAll applies a representation conversion to every chunk of a
// resident store, returning how many converted. It panics on a paged
// store: its chunks are the tier's.
func (s *Store) convertAll(convert func(c *Chunk) bool) int {
	s.mustBeWritable()
	n := 0
	for _, c := range s.chunks {
		if convert(c) {
			n++
		}
	}
	return n
}

// Settle settles every chunk (Chunk.Settle), returning the number
// converted. A paged store converts nothing and returns 0: its chunks
// are its segment's, settled when the version was published.
func (s *Store) Settle() int {
	if s.pool != nil {
		return 0
	}
	return s.convertAll((*Chunk).Settle)
}

// ForceSparseAll converts every chunk to the sparse representation
// regardless of occupancy (representation ablation). It panics on a
// paged store.
func (s *Store) ForceSparseAll() int {
	return s.convertAll((*Chunk).ForceSparse)
}

// ForceRunEncodeAll run-length encodes every chunk regardless of run
// ratio (representation ablation and kernel equivalence tests). It
// panics on a paged store.
func (s *Store) ForceRunEncodeAll() int {
	return s.convertAll((*Chunk).ForceRuns)
}
