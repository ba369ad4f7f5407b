package server

import (
	"container/list"
	"encoding/binary"
	"hash/maphash"
	"sync"
)

// cacheKey identifies one cached query result. The cube version is part
// of the key, so a copy-on-write catalog update (version bump) makes
// every prior entry unreachable; InvalidateCube reclaims their bytes
// eagerly.
type cacheKey struct {
	Cube    string
	Version int64
	// Query is the normalized source (mdx.Normalize), so formatting and
	// keyword-case variants of one query share an entry.
	Query string
	// Scenario and ScenarioRev scope scenario-path queries: the revision
	// bumps on every edit batch, so an edited scenario can never serve a
	// stale body even before InvalidateScenario reclaims the old entries.
	// Both are zero for plain cube queries.
	Scenario    string
	ScenarioRev int64
}

// entryOverhead approximates the bookkeeping bytes per cache entry
// (list element, map bucket share, key struct).
const entryOverhead = 160

// initialCacheLimit is the effective byte limit a cache starts from,
// before it has observed any reuse (or the whole budget, if smaller).
const initialCacheLimit = 256 << 10

// cacheEntry is one LRU slot.
type cacheEntry struct {
	key  cacheKey
	body []byte
	// hash identifies the key in the ghost table once the entry is
	// evicted.
	hash uint64
}

func (e *cacheEntry) cost() int {
	return len(e.body) + len(e.key.Query) + len(e.key.Cube) + len(e.key.Scenario) + entryOverhead
}

// ghost remembers an entry evicted for space: which key, and the bytes
// keeping it would have taken — 0 once the key has come back, or been
// evicted again, and the ghost is dead.
type ghost struct {
	hash uint64
	cost int
}

// resultCache is an LRU result cache bounded by bytes rather than by an
// entry count: grids vary from a single cell to thousands, so counting
// entries would make memory use unpredictable. A non-positive budget
// disables caching entirely.
//
// The budget is a cap, not a fill target: the cache holds its working
// set, not the last budget's worth of bodies that passed through. Its
// effective limit starts small and grows to the largest reuse distance
// it has observed. An entry evicted for space leaves a ghost in a queue
// kept in eviction order; a miss on a ghosted key means the limit was
// too small, and by how much is exact: every resident entry and every
// live ghost evicted after this one was referenced since the key last
// was (a hit moves an older entry in front of it just as an insert
// does), so holding the key until now would have taken their bytes and
// its own — each counted once however often it was referenced, which a
// count of bytes passing through would not do, and that overshoot is
// bodies held for nothing. The limit rises to that (at most the
// budget). Ghosts stand for at most the budget − limit bytes the cache
// could still grow by, so a cache at its budget keeps none and is a
// plain LRU. The limit never shrinks. A stream of never-repeated
// queries therefore costs the initial limit, not the budget.
type resultCache struct {
	mu     sync.Mutex
	budget int
	limit  int
	bytes  int
	ll     *list.List // front = most recently used
	items  map[cacheKey]*list.Element

	seed       maphash.Seed
	ghosts     map[uint64]int64 // key hash -> sequence number of its live ghost
	ghostQ     []ghost          // eviction order, oldest first
	ghostSeq   int64            // sequence number of ghostQ[0]
	ghostBytes int              // what the live ghosts stand for
}

// newResultCache creates a cache with the given byte budget.
func newResultCache(budgetBytes int) *resultCache {
	return &resultCache{
		budget: budgetBytes,
		limit:  min(initialCacheLimit, budgetBytes),
		ll:     list.New(),
		items:  make(map[cacheKey]*list.Element),
		seed:   maphash.MakeSeed(),
		ghosts: make(map[uint64]int64),
	}
}

// hash digests a key for the ghost table. A collision can only raise
// the limit spuriously.
func (c *resultCache) hash(k cacheKey) uint64 {
	var h maphash.Hash
	h.SetSeed(c.seed)
	for _, s := range [...]string{k.Cube, k.Query, k.Scenario} {
		h.WriteString(s)
		h.WriteByte(0)
	}
	var n [16]byte
	binary.LittleEndian.PutUint64(n[:8], uint64(k.Version))
	binary.LittleEndian.PutUint64(n[8:], uint64(k.ScenarioRev))
	h.Write(n[:])
	return h.Sum64()
}

// Get returns the cached body for the key, marking it recently used.
func (c *resultCache) Get(key cacheKey) ([]byte, bool) {
	if c.budget <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put inserts (or refreshes) an entry, evicting least-recently-used
// entries until the limit holds. Inserting a key whose ghost is still
// remembered grows the limit to the reuse distance just observed, and a
// body larger than the current limit grows it to fit; a body larger
// than the whole budget is not cached.
func (c *resultCache) Put(key cacheKey, body []byte) {
	if c.budget <= 0 {
		return
	}
	e := &cacheEntry{key: key, body: body}
	if e.cost() > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		c.bytes -= el.Value.(*cacheEntry).cost()
		e.hash = el.Value.(*cacheEntry).hash
		el.Value = e
	} else {
		e.hash = c.hash(key)
		if seq, ghosted := c.ghosts[e.hash]; ghosted {
			need := c.bytes
			for _, g := range c.ghostQ[seq-c.ghostSeq:] {
				need += g.cost
			}
			c.limit = max(c.limit, min(c.budget, need))
			c.dropGhost(e.hash)
		}
		el = c.ll.PushFront(e)
		c.items[key] = el
	}
	c.bytes += e.cost()
	c.limit = max(c.limit, e.cost())
	c.ll.MoveToFront(el)
	for c.bytes > c.limit {
		c.evictOldest()
	}
	for len(c.ghostQ) > 0 && (c.ghostQ[0].cost == 0 || c.ghostBytes > c.budget-c.limit) {
		if g := c.ghostQ[0]; g.cost > 0 {
			c.dropGhost(g.hash)
		}
		c.ghostQ = c.ghostQ[1:]
		c.ghostSeq++
	}
}

// dropGhost kills the live ghost of the hashed key, if there is one: it
// keeps its place in the queue and stands for nothing. Caller holds mu.
func (c *resultCache) dropGhost(hash uint64) {
	if seq, ok := c.ghosts[hash]; ok {
		g := &c.ghostQ[seq-c.ghostSeq]
		c.ghostBytes -= g.cost
		g.cost = 0
		delete(c.ghosts, hash)
	}
}

// evictOldest removes the least-recently-used entry, leaving a ghost
// while the cache can still grow. Caller holds mu.
func (c *resultCache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := c.ll.Remove(el).(*cacheEntry)
	delete(c.items, e.key)
	c.bytes -= e.cost()
	if c.limit < c.budget {
		c.dropGhost(e.hash) // a colliding key's: the table holds one per hash
		c.ghosts[e.hash] = c.ghostSeq + int64(len(c.ghostQ))
		c.ghostQ = append(c.ghostQ, ghost{hash: e.hash, cost: e.cost()})
		c.ghostBytes += e.cost()
	}
}

// InvalidateCube drops every entry for the named cube regardless of
// version, returning the number removed. Called on catalog updates so
// superseded results free their bytes immediately instead of aging out.
func (c *resultCache) InvalidateCube(cube string) int {
	return c.invalidate(func(k cacheKey) bool { return k.Cube == cube })
}

// InvalidateScenario drops every entry for the scenario id, returning
// the number removed. Called on scenario edit, commit and discard:
// revision-keyed entries are already unreachable after an edit, so this
// is byte reclamation, not correctness.
func (c *resultCache) InvalidateScenario(id string) int {
	return c.invalidate(func(k cacheKey) bool { return k.Scenario == id })
}

// invalidate drops the entries whose key matches. They leave no ghosts:
// they were not evicted for space, so they say nothing about the limit.
func (c *resultCache) invalidate(match func(cacheKey) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); match(e.key) {
			c.ll.Remove(el)
			delete(c.items, e.key)
			c.bytes -= e.cost()
			n++
		}
		el = next
	}
	return n
}

// Len returns the number of cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the accounted size of the cache.
func (c *resultCache) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Limit returns the effective byte limit: what the cache may hold now,
// between its initial limit and its budget.
func (c *resultCache) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit
}
