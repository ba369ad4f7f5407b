package chunk

import (
	"fmt"
	"time"
)

// Buffer pool: the paper's testbed holds a 20.2 GB cube behind a 256 MB
// cube cache. AttachTier gives a Store the same discipline — a
// resident-memory budget with least-recently-used chunks held only by
// a backing Tier, an immutable segment file (internal/segment), and
// faulted back in on access.
//
// It is a small buffer pool, not just a cache: recency tracking is an
// O(1) intrusive list (not a slice scan), chunks can be pinned against
// eviction while the executor still needs their merge-dependency
// partners (the paper's §5.2 pebbling objective), and fault-in I/O
// runs outside the pool lock with per-chunk in-flight deduplication,
// so concurrent queries faulting different chunks overlap their reads
// instead of serializing behind one mutex.
//
// A paged store is read-only: its chunk set is the tier's, every
// resident chunk is a clean copy of a tier chunk, and evicting one is a
// free drop. Set and PutChunk panic on it; a cube that must change gets
// a resident Clone, and a change that must last is published as a new
// version. No eviction does I/O, so nothing under the pool lock touches
// storage.
//
// Frame reuse: a cold scan faults and evicts about one chunk per read,
// and each fault decodes into a fresh dense array while its eviction
// hands an identical one to the GC. So an evicted chunk's dense array
// goes back to the decoder (denseFrame in codec.go) — but only when no
// reader can still see it. The engine's reads are leased (Lease.Read):
// the chunk stays the reader's until Release, and an eviction that
// finds it leased leaves the hand-back to the last Release. Every other
// read (Get, NonNull, Clone, PeekChunk, ReadChunk) has no release to
// wait for, so the chunk it returns is marked escaped and its array is
// never reused; so are the chunks resident when the tier was attached,
// which their builder may still hold. Lease and escape are set under
// mu in the critical section that finds or inserts the chunk, so no
// eviction can slip between the lookup and the mark. A lease never
// released costs one array to the GC, never a wrong cell.

// Tier is the storage beneath the buffer pool: an immutable keyed set
// of serialized chunks the pool faults from. Implementations must be
// safe for concurrent use by themselves: the pool calls ReadChunkAt
// outside the store mutex (so distinct chunks' fault I/O overlaps) and
// the metadata methods under it. A Tier must therefore never call back
// into the owning Store.
type Tier interface {
	// ReadChunkAt loads the chunk with the given canonical ID. It
	// returns (nil, 0, nil) when the tier does not hold the chunk. The
	// chunk must be a fresh decode nobody else holds: the pool may hand
	// its dense array to a later decode once it is evicted. The
	// float64 is always 0 — the pool measures fault wall time itself —
	// and remains only because benchmark/layers.go reads three results.
	ReadChunkAt(id int) (*Chunk, float64, error)
	// Contains reports whether the tier holds a chunk, without loading.
	Contains(id int) bool
	// IDs returns the canonical IDs of all chunks the tier holds, in
	// unspecified order, in a slice the caller owns.
	IDs() []int
	// Cells returns the cell count of a held chunk without loading it
	// (0 when absent). Store.Len sizes the store from it.
	Cells(id int) int
}

// frame is one resident chunk's slot in the pool: its place in the
// intrusive recency list and who may still see it. Guarded by the
// owning Store's mu.
type frame struct {
	id         int
	c          *Chunk
	prev, next *frame
	// leases counts the Leases holding c; escaped marks c handed out
	// without one, so its dense array is never reused. evicted marks a
	// frame dropped from the resident set while leased: the last
	// Release hands its array back.
	leases  int
	escaped bool
	evicted bool
}

// bufferPool is the Store's paging state over a backing Tier. All
// fields are guarded by the owning Store's mu; fault I/O runs outside
// it (see poolGet). The tier synchronizes itself.
type bufferPool struct {
	tier   Tier
	budget int // resident byte budget
	// frames maps resident chunk ids to their slots; head is the least
	// recently used, tail the most. touch is O(1).
	frames     map[int]*frame
	head, tail *frame
	// pins counts Pin calls per chunk id; a pinned chunk is never
	// evicted. Pins are independent of residency so a Pin racing an
	// eviction still protects the next fault-in.
	pins map[int]int
	// inflight marks chunk ids whose fault-in I/O is running outside
	// the lock; waiters block on the channel instead of re-reading.
	inflight map[int]chan struct{}
	// residentBytes approximates resident chunk memory.
	residentBytes int
	faults        int
	evictions     int
	// leases counts outstanding leased reads; recycled the dense arrays
	// handed back to the decoder.
	leases   int
	recycled int
}

func newBufferPool(t Tier, budgetBytes int) *bufferPool {
	return &bufferPool{
		tier:     t,
		budget:   budgetBytes,
		frames:   make(map[int]*frame),
		pins:     make(map[int]int),
		inflight: make(map[int]chan struct{}),
	}
}

// lruPushBack appends a frame as most recently used.
func (p *bufferPool) lruPushBack(n *frame) {
	n.prev, n.next = p.tail, nil
	if p.tail != nil {
		p.tail.next = n
	} else {
		p.head = n
	}
	p.tail = n
}

// lruRemove unlinks a frame.
func (p *bufferPool) lruRemove(n *frame) {
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

// touch marks a resident chunk as recently used, in O(1).
func (p *bufferPool) touch(f *frame) {
	if p.tail != f {
		p.lruRemove(f)
		p.lruPushBack(f)
	}
}

// insert gives a newly resident chunk its slot, most recently used.
func (p *bufferPool) insert(id int, c *Chunk) *frame {
	f := &frame{id: id, c: c}
	p.frames[id] = f
	p.lruPushBack(f)
	p.residentBytes += c.MemBytes()
	return f
}

// hold marks a frame as seen by a reader: leased to l, which holds
// nothing, or escaped when l is nil.
func (p *bufferPool) hold(f *frame, l *Lease) {
	if l == nil {
		f.escaped = true
		return
	}
	f.leases++
	p.leases++
	l.f = f
}

// release gives back the frame l holds, if any (none when l is nil);
// the last lease on an evicted frame recycles it.
func (p *bufferPool) release(l *Lease) {
	if l == nil || l.f == nil {
		return
	}
	f := l.f
	l.f = nil
	f.leases--
	p.leases--
	if f.leases == 0 && f.evicted {
		p.recycle(f)
	}
}

// recycle hands an evicted frame's dense array to the decoder unless
// the chunk escaped; the frame is done either way.
func (p *bufferPool) recycle(f *frame) {
	if !f.escaped && f.c.dense != nil {
		recycleDenseFrame(&f.c.dense)
		p.recycled++
	}
	f.c = nil
}

// AttachTier puts the store's chunks behind a backing tier with a
// resident-memory budget, and makes the store read-only: from then on
// its chunk set is the tier's, resident chunks are evictable clean
// copies, and the rest fault in on access. Every resident chunk must be
// one the tier holds, with the same cells. A store can have at most
// one tier; attaching a second is an error.
func (s *Store) AttachTier(t Tier, budgetBytes int) error {
	if s.pool != nil {
		return fmt.Errorf("chunk: store already has a backing tier")
	}
	if budgetBytes <= 0 {
		return fmt.Errorf("chunk: tier budget must be positive, got %d", budgetBytes)
	}
	for id := range s.chunks {
		if !t.Contains(id) {
			return fmt.Errorf("chunk: resident chunk %d is not in the tier", id)
		}
	}
	p := newBufferPool(t, budgetBytes)
	for id, c := range s.chunks {
		// Built before the attach: whoever built it may hold it still.
		p.insert(id, c).escaped = true
	}
	s.pool = p
	s.ids.Store(nil) // the tier may hold chunks the store never saw
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return nil
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
	// Evictions counts resident chunks dropped from the pool (the tier
	// still holds them).
	Evictions int
	// Pinned is the number of distinct chunk ids currently pinned.
	Pinned int
	// Leased counts outstanding leased reads (Lease.Read not yet
	// released); 0 whenever no scan is running.
	Leased int
	// Recycled counts evicted dense arrays the pool handed back for the
	// next fault's decode to reuse. On a dense cube, Faults − Recycled
	// approximates the fresh dense arrays the faults allocated.
	Recycled int
	// ResidentBytes is the pool's byte accounting of resident chunks —
	// what the eviction budget compares against. After the attach it
	// changes only on a fault or an eviction: a paged store is
	// read-only, so no chunk changes representation while resident.
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
	return SpillStats{
		Resident:      len(s.chunks),
		Spilled:       len(p.tier.IDs()) - len(s.chunks),
		Faults:        p.faults,
		Evictions:     p.evictions,
		Pinned:        len(p.pins),
		Leased:        p.leases,
		Recycled:      p.recycled,
		ResidentBytes: p.residentBytes,
	}
}

// Pooled reports whether a backing tier (buffer pool) is attached. The
// executor skips its pin bookkeeping entirely on unpooled stores.
func (s *Store) Pooled() bool { return s.pool != nil }

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

// chunkAt returns the chunk for id, faulting it in from the backing
// tier when necessary. It returns nil when the chunk exists nowhere.
// With a tier attached, lookups go through the pool (short map/recency
// critical sections under mu, fault I/O outside it) and the chunk
// escapes: its frame is never reused. Without one, the resident map is
// read directly (safe for concurrent readers).
func (s *Store) chunkAt(id int) *Chunk {
	if s.pool == nil {
		return s.chunks[id]
	}
	c, _, err := s.poolGet(id, nil)
	if err != nil {
		panic(fmt.Sprintf("chunk: tier fault for chunk %d: %v", id, err))
	}
	return c
}

// faultInfo describes what one poolGet did: whether it faulted the
// chunk in from the tier, how long the fault I/O took, how many
// evictions it triggered and whether the chunk was pinned. It feeds
// ReadInfo so the engine can attribute pool behaviour per query.
type faultInfo struct {
	faulted   bool
	faultMs   float64
	evictions int
	pinned    bool
}

// poolGet is the buffer pool's lookup: resident hit, wait on an
// in-flight fault, or fault in. The tier read runs outside mu so
// concurrent fault-ins of different chunks overlap; per-chunk
// in-flight channels prevent duplicate reads of the same chunk. The
// chunk returned is leased to l — which gives back what it held first —
// or, when l is nil, escapes.
func (s *Store) poolGet(id int, l *Lease) (*Chunk, faultInfo, error) {
	p := s.pool
	var fi faultInfo
	for {
		s.mu.Lock()
		p.release(l)
		if f, ok := p.frames[id]; ok {
			c := f.c // an eviction may clear f.c once mu is released
			p.touch(f)
			p.hold(f, l)
			fi.pinned = p.pins[id] > 0
			s.mu.Unlock()
			return c, fi, nil
		}
		if ch, busy := p.inflight[id]; busy {
			s.mu.Unlock()
			<-ch
			continue
		}
		if !p.tier.Contains(id) {
			s.mu.Unlock()
			return nil, fi, nil
		}
		ch := make(chan struct{})
		p.inflight[id] = ch
		s.mu.Unlock()

		faultStart := time.Now()
		c, _, err := p.tier.ReadChunkAt(id)
		fi.faultMs = float64(time.Since(faultStart)) / float64(time.Millisecond)

		s.mu.Lock()
		delete(p.inflight, id)
		if err != nil {
			s.mu.Unlock()
			close(ch)
			return nil, fi, err
		}
		if c == nil {
			// Defensive: Contains said yes, the read found nothing.
			s.mu.Unlock()
			close(ch)
			return nil, fi, nil
		}
		// The tier keeps its copy, so a later eviction is a free drop.
		s.chunks[id] = c
		p.hold(p.insert(id, c), l)
		p.faults++
		fi.faulted = true
		// A transient pin keeps this fault's own chunk out of the
		// eviction pass it triggers: when every other resident chunk is
		// pinned, the walk would otherwise reach the tail and drop the
		// chunk we are about to hand to the caller.
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

// evictLocked drops least-recently-used unpinned chunks from the
// resident set until it fits the budget (always keeping at least one
// chunk resident), returning the number evicted. The tier holds every
// resident chunk, so a drop does no I/O. Pinned chunks are skipped and
// keep their recency position; leased ones are dropped all the same,
// their frames recycled at the last Release. Caller holds mu.
func (s *Store) evictLocked() int {
	p := s.pool
	if p == nil {
		return 0
	}
	evicted := 0
	f := p.head
	for p.residentBytes > p.budget && len(p.frames) > 1 && f != nil {
		next := f.next
		if p.pins[f.id] > 0 {
			f = next
			continue
		}
		p.residentBytes -= f.c.MemBytes()
		p.evictions++
		evicted++
		delete(s.chunks, f.id)
		delete(p.frames, f.id)
		p.lruRemove(f)
		if f.leases > 0 {
			f.evicted = true
		} else {
			p.recycle(f)
		}
		f = next
	}
	return evicted
}

// Lease is one reader's hold on the pooled chunk it read last: Read
// returns a chunk whose frame no other fault reuses until the next Read
// or Release, and a reader that folds each chunk before reading the
// next holds exactly the chunk it is folding. Take one with
// Store.Lease, read through it, and Release it on every path; one
// goroutine uses a lease at a time. On a store without a tier it is a
// counted read and nothing else.
type Lease struct {
	s *Store
	f *frame
}

// Lease returns an empty lease on the store's chunks.
func (s *Store) Lease() Lease { return Lease{s: s} }

// Release gives back the chunk the lease holds, if any: from then on
// the caller must not touch it. Releasing twice is a no-op.
func (l *Lease) Release() {
	if l.f == nil {
		return
	}
	s := l.s
	s.mu.Lock()
	s.pool.release(l)
	s.mu.Unlock()
}
