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
// Unpin) — read accounting is atomic, the read hook is swapped
// atomically (SetReadHook is safe against concurrent readers), and
// segment fault-ins go through the buffer pool, which overlaps distinct
// chunks' I/O and deduplicates same-chunk faults. Mutation (Set,
// PutChunk, CompressAll, AttachTier) must not race with readers; the
// serving layer guarantees this by publishing cubes copy-on-write, and
// its concurrent queries lean on the concurrent-reader guarantee.
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
	// costHook, when set, charges every chunk read against an I/O cost
	// model (the simulated disk attaches here) and returns that read's
	// modeled cost in milliseconds. Unlike the observer readHook, the
	// return value flows back to the reader, so a query accumulates
	// exactly the cost of its own reads — the race-free replacement for
	// diffing the disk's global counters around an execution.
	costHook atomic.Pointer[func(id int) float64]
	// hookMu serializes read-hook invocations (callHooks). It is
	// deliberately separate from mu: a slow hook (the simulated disk's
	// cost model) must not block other queries' pool fault-ins.
	hookMu sync.Mutex
	// pool, when non-nil, drops least-recently-used clean chunks and
	// faults them back from a backing Tier (an immutable segment file)
	// so the resident set fits a memory budget.
	pool *bufferPool
	// mu guards the resident chunk map and the buffer-pool bookkeeping
	// (recency list, dirty/deleted sets, pins) whenever a tier is
	// attached. Fault-in I/O runs outside it — see poolGet.
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

// SetCostHook installs fn to charge chunk reads against an I/O cost
// model; fn returns the modeled cost of the read in milliseconds,
// which ReadChunkInfo reports back to the reader. Pass nil to remove.
// Like SetReadHook, the swap is atomic and invocation is serialized
// under the hook mutex.
func (s *Store) SetCostHook(fn func(id int) float64) {
	if fn == nil {
		s.costHook.Store(nil)
		return
	}
	s.costHook.Store(&fn)
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

// Set implements cube.Store.
func (s *Store) Set(addr []int, v float64) {
	ccoord := make([]int, s.geom.NumDims())
	off := s.geom.Split(addr, ccoord)
	id := s.geom.CanonicalID(ccoord)
	c := s.chunkAt(id)
	if c == nil {
		if math.IsNaN(v) {
			return
		}
		c = NewSparse(s.geom.ChunkCap())
		s.chunks[id] = c
		s.ids.Store(nil)
	}
	before := c.MemBytes()
	c.Set(off, v)
	if c.Len() == 0 {
		delete(s.chunks, id)
		s.ids.Store(nil)
		s.noteMutation(id, -before)
		return
	}
	s.noteMutation(id, c.MemBytes()-before)
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

// Len implements cube.Store. Tier-held chunks contribute without
// being loaded (the tier sizes them from its index).
func (s *Store) Len() int {
	if s.pool != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	n := 0
	for _, c := range s.chunks {
		n += c.Len()
	}
	if p := s.pool; p != nil {
		for _, id := range p.tier.IDs() {
			if _, resident := s.chunks[id]; resident || p.deleted[id] {
				continue
			}
			n += p.tier.Cells(id)
		}
	}
	return n
}

// Clone implements cube.Store. A pooled store's clone shares the
// immutable tier (CloneTier) and stays within the same resident budget
// instead of forcing every chunk into memory; its subsequent mutations
// stay resident. A tier closed under it falls back to a fully resident
// clone.
func (s *Store) Clone() cube.Store {
	out := NewStore(s.geom)
	if s.pool == nil {
		for id, c := range s.chunks {
			out.chunks[id] = c.Clone()
		}
		return out
	}
	s.mu.Lock()
	//lint:pairok a nil clone has nothing to close, and a non-nil one hands its ownership to newBufferPool below
	nt, _ := s.pool.tier.CloneTier()
	if nt == nil {
		s.mu.Unlock()
		// Fallback: materialize everything through the pool.
		for _, id := range s.ChunkIDs() {
			if c := s.chunkAt(id); c != nil {
				out.chunks[id] = c.Clone()
			}
		}
		return out
	}
	p := newBufferPool(nt, s.pool.budget)
	for id, c := range s.chunks {
		out.chunks[id] = c.Clone()
	}
	// Dirty/deleted survive verbatim: the cloned view may hold a stale
	// copy of a chunk the parent mutated in place, and must not serve
	// it after an eviction or count a deleted chunk.
	for id := range s.pool.dirty {
		p.dirty[id] = true
	}
	for id := range s.pool.deleted {
		p.deleted[id] = true
	}
	s.mu.Unlock()
	out.attachPoolClone(p)
	return out
}

// Flatten copies the chain's resolved view into a fresh store under
// geom, which owns every chunk it holds. An engine-capable chain whose
// geometry is geom's goes a chunk at a time through Resolve — untouched
// chunks are cloned in the representation the base keeps them in,
// touched ones resolved densely and compressed by occupancy — so a
// commit costs what the cube's chunks cost to copy, not two map probes
// per layer per cell. Any other chain (wider layers, a base that is not
// chunk-backed) is copied cell by cell through NonNull.
func (c *Chain) Flatten(geom *Geometry) *Store {
	out := NewStore(geom)
	if !c.EngineCapable() || !sameGeometry(geom, c.baseChunks.geom) {
		c.NonNull(func(addr []int, v float64) bool {
			out.Set(addr, v)
			return true
		})
		return out
	}
	scratch := NewDense(geom.ChunkCap())
	for _, id := range append(c.baseChunks.ChunkIDs(), c.LayerChunkIDs()...) {
		if out.chunks[id] != nil {
			continue // named by the base and by a layer
		}
		if ch := c.Resolve(id, c.baseChunks.PeekChunk(id), scratch); ch != nil {
			ch = ch.Clone()
			ch.Compress()
			out.PutChunk(id, ch)
		}
	}
	return out
}

// ChunkIDs returns the canonical IDs of the materialized chunks —
// resident and tier-held — sorted without duplicates. The slice is the
// caller's own; the sort behind it is cached until an ID comes or goes,
// so a plan over an unchanged store pays one copy and no lock.
func (s *Store) ChunkIDs() []int {
	if ids := s.ids.Load(); ids != nil {
		return slices.Clone(*ids)
	}
	if s.pool != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	ids := make([]int, 0, len(s.chunks))
	for id := range s.chunks {
		ids = append(ids, id)
	}
	if p := s.pool; p != nil {
		for _, id := range p.tier.IDs() {
			if _, resident := s.chunks[id]; resident || p.deleted[id] {
				continue
			}
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
	if s.pool != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	n := len(s.chunks)
	if p := s.pool; p != nil {
		for _, id := range p.tier.IDs() {
			if _, resident := s.chunks[id]; resident || p.deleted[id] {
				continue
			}
			n++
		}
	}
	return n
}

// ReadInfo attributes one chunk read to the query that issued it: the
// modeled I/O cost from the cost hook, and — on a pooled store — what
// the buffer pool did to satisfy the read. The engine turns faulted
// reads into trace spans and sums CostMs into per-query statistics.
type ReadInfo struct {
	// CostMs is the cost hook's charge for this read (the simulated
	// disk's model); 0 without a hook. Real faults are measured by
	// FaultMs instead.
	CostMs float64
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

// ReadChunk fetches the chunk with the given canonical ID, counting the
// read and notifying the read and cost hooks (the simulated disk). A
// nil return means the chunk is empty (not materialized).
func (s *Store) ReadChunk(id int) *Chunk {
	c, _ := s.ReadChunkInfo(id)
	return c
}

// ReadChunkInfo is ReadChunk with per-read attribution: the modeled
// I/O cost of exactly this read, and the buffer pool's hit/fault/
// eviction/pin outcome. This is the engine's read path — per-query
// disk cost and per-fault trace spans are built from the returned
// ReadInfo rather than from global counters, so concurrent queries
// never absorb each other's I/O.
func (s *Store) ReadChunkInfo(id int) (*Chunk, ReadInfo) {
	s.reads.Add(1)
	var info ReadInfo
	rh := s.readHook.Load()
	ch := s.costHook.Load()
	if rh != nil || ch != nil {
		info.CostMs = s.callHooks(id, rh, ch)
	}
	if s.pool == nil {
		return s.chunks[id], info
	}
	c, fi, err := s.poolGet(id)
	if err != nil {
		panic(fmt.Sprintf("chunk: tier fault for chunk %d: %v", id, err))
	}
	info.Faulted = fi.faulted
	info.FaultMs = fi.faultMs
	info.Evictions = fi.evictions
	info.Pinned = fi.pinned
	return c, info
}

// callHooks invokes the read and cost hooks under hookMu, returning the
// cost hook's charge. The deferred unlock releases hookMu even when a
// hook panics, so a recovered panic cannot wedge the next hooked read.
func (s *Store) callHooks(id int, rh *func(int), ch *func(int) float64) (costMs float64) {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	if rh != nil {
		(*rh)(id)
	}
	if ch != nil {
		costMs = (*ch)(id)
	}
	return costMs
}

// PeekChunk fetches a chunk without read accounting (metadata scans).
// Spilled chunks still fault in.
func (s *Store) PeekChunk(id int) *Chunk { return s.chunkAt(id) }

// PutChunk installs a chunk at the given canonical ID, replacing any
// existing chunk. A nil or empty chunk deletes the slot. The chunk's
// capacity must match the geometry's chunk capacity; a mismatch would
// corrupt offset decoding.
func (s *Store) PutChunk(id int, c *Chunk) {
	if id < 0 || id >= s.geom.NumChunks() {
		panic(fmt.Sprintf("chunk: PutChunk id %d out of range [0,%d)", id, s.geom.NumChunks()))
	}
	s.ids.Store(nil)
	if c == nil || c.Len() == 0 {
		before := 0
		if cur, ok := s.chunks[id]; ok {
			before = cur.MemBytes()
		}
		delete(s.chunks, id)
		s.noteMutation(id, -before)
		return
	}
	if c.Cap() != s.geom.ChunkCap() {
		panic(fmt.Sprintf("chunk: PutChunk capacity %d does not match geometry chunk capacity %d", c.Cap(), s.geom.ChunkCap()))
	}
	before := 0
	if cur, ok := s.chunks[id]; ok {
		before = cur.MemBytes()
	}
	s.chunks[id] = c
	s.noteMutation(id, c.MemBytes()-before)
}

// MemBytes estimates the store's resident size.
func (s *Store) MemBytes() int {
	n := 0
	for _, c := range s.chunks {
		n += c.MemBytes()
	}
	return n
}

// residentIDs snapshots the resident chunk IDs (under mu when pooled)
// so a representation sweep can mutate accounting — which may evict —
// without iterating the map it is shrinking.
func (s *Store) residentIDs() []int {
	if s.pool != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	ids := make([]int, 0, len(s.chunks))
	for id := range s.chunks {
		ids = append(ids, id)
	}
	return ids
}

// convertAll applies a representation conversion to every resident
// chunk, flowing the byte delta of each conversion through the pool's
// accounting — without this, a pooled store would keep charging a
// compressed chunk at its old size, defeating the byte-budgeted LRU.
func (s *Store) convertAll(convert func(c *Chunk) bool) int {
	n := 0
	for _, id := range s.residentIDs() {
		c := s.chunks[id]
		if c == nil {
			continue // evicted by an earlier conversion's accounting
		}
		before := c.MemBytes()
		if convert(c) {
			n++
			s.noteMutation(id, c.MemBytes()-before)
		}
	}
	return n
}

// CompressAll converts all dense chunks under the density threshold to
// sparse representation, returning the number converted. This is the
// "cube reorganization" step of the co-location experiment.
func (s *Store) CompressAll() int {
	return s.convertAll(func(c *Chunk) bool { return c.Compress() })
}

// ForceSparseAll converts every chunk to the sparse representation
// regardless of occupancy (representation ablation).
func (s *Store) ForceSparseAll() int {
	return s.convertAll(func(c *Chunk) bool { return c.ForceSparse() })
}

// EncodeRunsAll run-length encodes every resident chunk whose run ratio
// clears the encoding threshold, returning the number converted. This
// is the ingest/Seal-time compression step: whatifd applies it after
// loading a cube, and a pooled store's resident bytes (and therefore
// its spill budget) shrink to the encoded size.
func (s *Store) EncodeRunsAll() int {
	return s.convertAll(func(c *Chunk) bool { return c.EncodeRuns() })
}

// ForceRunEncodeAll run-length encodes every resident chunk regardless
// of run ratio (representation ablation and kernel equivalence tests).
func (s *Store) ForceRunEncodeAll() int {
	return s.convertAll(func(c *Chunk) bool { return c.ForceRuns() })
}
