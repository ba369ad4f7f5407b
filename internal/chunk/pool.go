package chunk

import (
	"fmt"
	"time"
)

// Buffer pool: the paper's testbed holds a 20.2 GB cube behind a 256 MB
// cube cache. AttachTier gives a Store the same discipline — a
// resident-memory budget with least-recently-used chunks held by a
// backing Tier and faulted back in on access. The pool is tier-
// agnostic: the scratch spill file (SpillTo), the simulated disk
// (simdisk.Tier) and the persistent segment store (internal/segment)
// all plug in behind the same fault/evict protocol.
//
// It is a small buffer pool, not just a cache: recency tracking is an
// O(1) intrusive list (not a slice scan), chunks can be pinned against
// eviction while the executor still needs their merge-dependency
// partners (the paper's §5.2 pebbling objective), and fault-in I/O
// runs outside the pool lock with per-chunk in-flight deduplication,
// so concurrent queries faulting different chunks overlap their reads
// instead of serializing behind one mutex.
//
// Dirty tracking makes eviction write-back rather than write-through:
// a chunk faulted from the tier stays in the tier, so evicting it
// clean is a free drop; only chunks mutated since their last write
// (or never written) are pushed out through WriteChunk. On a read-only
// tier dirty chunks simply stay resident — the budget yields rather
// than lose data — and deletions are tracked in a side set instead of
// being pushed down.

// lruNode is one resident chunk's slot in the intrusive recency list.
type lruNode struct {
	id         int
	prev, next *lruNode
}

// bufferPool is the Store's paging state over a backing Tier. All
// fields are guarded by the owning Store's mu; fault I/O runs outside
// it (see poolGet). The tier synchronizes itself.
type bufferPool struct {
	tier   Tier
	budget int // resident byte budget
	// nodes maps resident chunk ids to their recency-list slot; head is
	// the least recently used, tail the most. touch is O(1).
	nodes      map[int]*lruNode
	head, tail *lruNode
	// pins counts Pin calls per chunk id; a pinned chunk is never
	// evicted. Pins are independent of residency so a Pin racing an
	// eviction still protects the next fault-in.
	pins map[int]int
	// inflight marks chunk ids whose fault-in I/O is running outside
	// the lock; waiters block on the channel instead of re-reading.
	inflight map[int]chan struct{}
	// dirty marks resident chunks whose latest content is not in the
	// tier; eviction must write them back (or keep them, read-only).
	dirty map[int]bool
	// deleted marks chunks the tier still holds but the store has
	// deleted — needed only when the tier is read-only and cannot
	// Remove. Reads treat them as absent; Len/ChunkIDs skip them.
	deleted map[int]bool
	// residentBytes approximates resident chunk memory.
	residentBytes int
	faults        int
	evictions     int
	// readOnly and durable cache the tier's static properties.
	readOnly bool
	durable  bool
}

func newBufferPool(t Tier, budgetBytes int) *bufferPool {
	p := &bufferPool{
		tier:     t,
		budget:   budgetBytes,
		nodes:    make(map[int]*lruNode),
		pins:     make(map[int]int),
		inflight: make(map[int]chan struct{}),
		dirty:    make(map[int]bool),
		deleted:  make(map[int]bool),
		readOnly: t.ReadOnly(),
	}
	if d, ok := t.(DurableTier); ok {
		p.durable = d.Durable()
	}
	return p
}

// lruPushBack appends a node as most recently used.
func (p *bufferPool) lruPushBack(n *lruNode) {
	n.prev, n.next = p.tail, nil
	if p.tail != nil {
		p.tail.next = n
	} else {
		p.head = n
	}
	p.tail = n
}

// lruRemove unlinks a node.
func (p *bufferPool) lruRemove(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		p.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		p.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// touch marks a resident chunk as recently used, inserting it when it
// has no slot yet. O(1), unlike the slice scan it replaced.
func (p *bufferPool) touch(id int) {
	if n, ok := p.nodes[id]; ok {
		if p.tail != n {
			p.lruRemove(n)
			p.lruPushBack(n)
		}
		return
	}
	n := &lruNode{id: id}
	p.nodes[id] = n
	p.lruPushBack(n)
}

// drop removes a chunk's recency slot, if any.
func (p *bufferPool) drop(id int) {
	if n, ok := p.nodes[id]; ok {
		p.lruRemove(n)
		delete(p.nodes, id)
	}
}

// AttachTier puts the store's chunks behind a backing tier with a
// resident-memory budget. Resident chunks the tier does not already
// hold are marked dirty (eviction writes them back); chunks only the
// tier holds fault in on access. A store can have at most one tier;
// attaching a second is an error.
func (s *Store) AttachTier(t Tier, budgetBytes int) error {
	if s.pool != nil {
		return fmt.Errorf("chunk: store already has a backing tier")
	}
	if budgetBytes <= 0 {
		return fmt.Errorf("chunk: tier budget must be positive, got %d", budgetBytes)
	}
	p := newBufferPool(t, budgetBytes)
	for id, c := range s.chunks {
		p.touch(id)
		p.residentBytes += c.MemBytes()
		if !t.Contains(id) {
			p.dirty[id] = true
		}
	}
	s.pool = p
	s.ids.Store(nil) // the tier may hold chunks the store never saw
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return nil
}

// attachPoolClone installs a pre-built pool on a freshly cloned store.
// Unlike AttachTier it preserves the parent's dirty/deleted bookkeeping
// verbatim: a parent's dirty resident chunk must stay dirty in the
// clone even when the shared tier holds a stale copy of it.
func (s *Store) attachPoolClone(p *bufferPool) {
	for id, c := range s.chunks {
		p.touch(id)
		p.residentBytes += c.MemBytes()
	}
	s.pool = p
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
}

// SpillStats describes the buffer pool's state. The zero value is
// returned augmented with the resident count when no tier is attached.
type SpillStats struct {
	// Resident and Spilled are the chunk counts on each side of the
	// budget line: Spilled counts chunks held only by the backing tier.
	Resident int
	Spilled  int
	// Faults counts loads from the backing tier.
	Faults int
	// Evictions counts resident chunks pushed out of the pool (written
	// back when dirty, dropped when the tier already held them).
	Evictions int
	// Pinned is the number of distinct chunk ids currently pinned.
	Pinned int
	// ResidentBytes is the pool's byte accounting of resident chunks —
	// what the eviction budget compares against. Representation sweeps
	// (CompressAll, EncodeRunsAll, …) flow their byte deltas into it,
	// so an encoded store's budget headroom grows with the encoding.
	ResidentBytes int
}

// SpillStats reports the buffer pool's state. Resident is the full
// chunk count and the rest zero when no tier is attached.
func (s *Store) SpillStats() SpillStats {
	if s.pool == nil {
		return SpillStats{Resident: len(s.chunks), ResidentBytes: s.MemBytes()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pool
	spilled := 0
	for _, id := range p.tier.IDs() {
		if _, resident := s.chunks[id]; resident || p.deleted[id] {
			continue
		}
		spilled++
	}
	return SpillStats{
		Resident:      len(s.chunks),
		Spilled:       spilled,
		Faults:        p.faults,
		Evictions:     p.evictions,
		Pinned:        len(p.pins),
		ResidentBytes: p.residentBytes,
	}
}

// Pooled reports whether a backing tier (buffer pool) is attached. The
// executor skips its pin bookkeeping entirely on unpooled stores.
func (s *Store) Pooled() bool { return s.pool != nil }

// Tiered reports whether the attached tier, if any, is durable — its
// chunks survive process restart. Serving layers use it to decide
// whether a store needs persisting.
func (s *Store) Tiered() bool { return s.pool != nil && s.pool.durable }

// Pin marks a chunk unevictable until a matching Unpin. The executor
// pins chunks whose merge-dependency partners are still unscanned, so
// the pebbling-optimal resident set survives concurrent queries'
// evictions. Pinning is by id and independent of residency: pinning a
// spilled chunk protects it from the moment it faults back in. No-op
// without a backing tier.
func (s *Store) Pin(id int) {
	if s.pool == nil {
		return
	}
	s.mu.Lock()
	s.pool.pins[id]++
	s.mu.Unlock()
}

// Unpin releases one Pin. When the last pin drops, deferred evictions
// proceed. Unpinning a chunk that is not pinned is a no-op.
func (s *Store) Unpin(id int) {
	if s.pool == nil {
		return
	}
	s.mu.Lock()
	if p := s.pool; p.pins[id] > 0 {
		p.pins[id]--
		if p.pins[id] == 0 {
			delete(p.pins, id)
			s.evictLocked()
		}
	}
	s.mu.Unlock()
}

// CloseSpill detaches and closes the backing tier after faulting every
// tier-only chunk back into memory. The store remains fully usable.
func (s *Store) CloseSpill() error {
	if s.pool == nil {
		return nil
	}
	// Lift the budget so faulting in does not re-evict mid-iteration.
	s.mu.Lock()
	p := s.pool
	p.budget = int(^uint(0) >> 1)
	var ids []int
	for _, id := range p.tier.IDs() {
		if _, resident := s.chunks[id]; resident || p.deleted[id] {
			continue
		}
		ids = append(ids, id)
	}
	s.mu.Unlock()
	for _, id := range ids {
		if _, _, err := s.poolGet(id); err != nil {
			return err
		}
	}
	err := p.tier.Close()
	s.pool = nil
	return err
}

// SyncTier flushes the backing tier's buffered writes, if any. No-op
// without a tier.
func (s *Store) SyncTier() error {
	if s.pool == nil {
		return nil
	}
	return s.pool.tier.Sync()
}

// chunkAt returns the chunk for id, faulting it in from the backing
// tier when necessary. It returns nil when the chunk exists nowhere.
// With a tier attached, lookups go through the pool (short map/recency
// critical sections under mu, fault I/O outside it); without one, the
// resident map is read directly (safe for concurrent readers).
func (s *Store) chunkAt(id int) *Chunk {
	if s.pool == nil {
		return s.chunks[id]
	}
	c, _, err := s.poolGet(id)
	if err != nil {
		panic(fmt.Sprintf("chunk: tier fault for chunk %d: %v", id, err))
	}
	return c
}

// faultInfo describes what one poolGet did: whether it faulted the
// chunk in from the tier, how long the fault I/O took, the tier's
// modeled cost, how many evictions it triggered, whether the chunk was
// pinned, and whether a durable tier served it. It feeds ReadInfo so
// the engine can attribute pool behaviour per query.
type faultInfo struct {
	faulted   bool
	faultMs   float64
	costMs    float64
	evictions int
	pinned    bool
	durable   bool
}

// poolGet is the buffer pool's lookup: resident hit, wait on an
// in-flight fault, or fault in. The tier read runs outside mu so
// concurrent fault-ins of different chunks overlap; per-chunk
// in-flight channels prevent duplicate reads of the same chunk.
func (s *Store) poolGet(id int) (*Chunk, faultInfo, error) {
	p := s.pool
	var fi faultInfo
	for {
		s.mu.Lock()
		if c, ok := s.chunks[id]; ok {
			p.touch(id)
			fi.pinned = p.pins[id] > 0
			s.mu.Unlock()
			return c, fi, nil
		}
		if ch, busy := p.inflight[id]; busy {
			s.mu.Unlock()
			<-ch
			continue
		}
		if p.deleted[id] || !p.tier.Contains(id) {
			s.mu.Unlock()
			return nil, fi, nil
		}
		ch := make(chan struct{})
		p.inflight[id] = ch
		s.mu.Unlock()

		faultStart := time.Now()
		c, costMs, err := p.tier.ReadChunkAt(id)
		fi.faultMs = float64(time.Since(faultStart)) / float64(time.Millisecond)
		fi.costMs = costMs

		s.mu.Lock()
		delete(p.inflight, id)
		if err != nil {
			s.mu.Unlock()
			close(ch)
			return nil, fi, err
		}
		if c == nil {
			// The tier lost the chunk between Contains and the read
			// (concurrent Remove); treat as absent.
			s.mu.Unlock()
			close(ch)
			return nil, fi, nil
		}
		// The tier keeps its copy: the resident chunk starts clean, so
		// a later eviction without mutation is a free drop.
		s.chunks[id] = c
		p.touch(id)
		p.residentBytes += c.MemBytes()
		p.faults++
		fi.faulted = true
		fi.durable = p.durable
		// A transient pin keeps this fault's own chunk out of the
		// eviction pass it triggers: when every other resident chunk is
		// unevictable (pinned, or dirty on a read-only tier), the walk
		// would otherwise reach the tail and drop the chunk we are
		// about to hand to the caller.
		p.pins[id]++
		fi.evictions = s.evictLocked()
		p.pins[id]--
		if p.pins[id] == 0 {
			delete(p.pins, id)
		}
		fi.pinned = p.pins[id] > 0
		s.mu.Unlock()
		close(ch)
		return c, fi, nil
	}
}

// evictLocked pushes least-recently-used unpinned chunks out of the
// resident set until it fits the budget (always keeping at least one
// chunk resident), returning the number evicted. Dirty chunks are
// written back through the tier first; clean chunks are dropped (the
// tier already holds them). On a read-only tier dirty chunks are
// skipped like pinned ones — the budget yields rather than lose data.
// Pinned and skipped chunks keep their recency position. Caller holds
// mu.
func (s *Store) evictLocked() int {
	p := s.pool
	if p == nil {
		return 0
	}
	evicted := 0
	n := p.head
	for p.residentBytes > p.budget && len(p.nodes) > 1 && n != nil {
		next := n.next
		if p.pins[n.id] > 0 {
			n = next
			continue
		}
		victim := n.id
		c, ok := s.chunks[victim]
		if !ok {
			// Defensive: a node without a resident chunk is stale.
			p.drop(victim)
			n = next
			continue
		}
		if p.dirty[victim] {
			if p.readOnly {
				n = next
				continue
			}
			if err := p.tier.WriteChunk(victim, c); err != nil {
				panic(fmt.Sprintf("chunk: tier write-back for chunk %d: %v", victim, err))
			}
			delete(p.dirty, victim)
		}
		p.residentBytes -= c.MemBytes()
		p.evictions++
		evicted++
		delete(s.chunks, victim)
		p.drop(victim)
		n = next
	}
	return evicted
}

// noteMutation updates pool accounting after a resident chunk changed
// size, or after a chunk was created or deleted.
func (s *Store) noteMutation(id int, delta int) {
	if s.pool == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pool
	p.residentBytes += delta
	if _, resident := s.chunks[id]; resident {
		p.touch(id)
		// The resident copy now supersedes whatever the tier holds.
		p.dirty[id] = true
		delete(p.deleted, id)
	} else {
		// Deleted: drop the recency slot and the tier's copy (or mark
		// it deleted when the tier cannot remove).
		p.drop(id)
		delete(p.dirty, id)
		if p.tier.Contains(id) {
			if p.readOnly {
				p.deleted[id] = true
			} else if err := p.tier.Remove(id); err != nil {
				panic(fmt.Sprintf("chunk: tier remove for chunk %d: %v", id, err))
			}
		}
	}
	s.evictLocked()
}
