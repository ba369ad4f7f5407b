package server

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheHitOnRepeat(t *testing.T) {
	c := newResultCache(1 << 20)
	key := cacheKey{Cube: "wf", Version: 1, Query: "SELECT ..."}
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, []byte("body"))
	got, ok := c.Get(key)
	if !ok || string(got) != "body" {
		t.Fatalf("Get = %q, %v; want body, true", got, ok)
	}
}

func TestCacheMissOnVersionBump(t *testing.T) {
	c := newResultCache(1 << 20)
	c.Put(cacheKey{Cube: "wf", Version: 1, Query: "q"}, []byte("v1"))
	if _, ok := c.Get(cacheKey{Cube: "wf", Version: 2, Query: "q"}); ok {
		t.Fatal("version-bumped key hit a stale entry")
	}
	if _, ok := c.Get(cacheKey{Cube: "wf", Version: 1, Query: "q"}); !ok {
		t.Fatal("original version lost")
	}
}

func TestCacheByteBudgetEviction(t *testing.T) {
	body := make([]byte, 1024)
	perEntry := (&cacheEntry{key: cacheKey{Cube: "c", Query: "q0"}, body: body}).cost()
	c := newResultCache(3 * perEntry)

	for i := 0; i < 4; i++ {
		c.Put(cacheKey{Cube: "c", Version: 1, Query: fmt.Sprintf("q%d", i)}, body)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d after overflow, want 3", c.Len())
	}
	if c.Bytes() > 3*perEntry {
		t.Fatalf("Bytes = %d exceeds budget %d", c.Bytes(), 3*perEntry)
	}
	// q0 was least recently used and must be gone; the rest survive.
	if _, ok := c.Get(cacheKey{Cube: "c", Version: 1, Query: "q0"}); ok {
		t.Fatal("LRU entry q0 survived eviction")
	}
	for i := 1; i < 4; i++ {
		if _, ok := c.Get(cacheKey{Cube: "c", Version: 1, Query: fmt.Sprintf("q%d", i)}); !ok {
			t.Fatalf("q%d evicted out of LRU order", i)
		}
	}

	// Touching an old entry protects it: q1 is refreshed above (the Get
	// loop ends on q3, but q1 was read after q2's insertion effects), so
	// make the recency explicit and insert once more.
	c.Get(cacheKey{Cube: "c", Version: 1, Query: "q1"})
	c.Put(cacheKey{Cube: "c", Version: 1, Query: "q4"}, body)
	if _, ok := c.Get(cacheKey{Cube: "c", Version: 1, Query: "q1"}); !ok {
		t.Fatal("recently-used q1 evicted instead of LRU victim")
	}
}

func TestCacheOversizedBodyNotStored(t *testing.T) {
	c := newResultCache(256)
	c.Put(cacheKey{Cube: "c", Query: "q"}, make([]byte, 1024))
	if c.Len() != 0 {
		t.Fatal("body larger than the whole budget was cached")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	key := cacheKey{Cube: "c", Query: "q"}
	c.Put(key, []byte("body"))
	if _, ok := c.Get(key); ok {
		t.Fatal("zero-budget cache returned a hit")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("zero-budget cache stored bytes")
	}
}

func TestCacheInvalidateCube(t *testing.T) {
	c := newResultCache(1 << 20)
	c.Put(cacheKey{Cube: "a", Version: 1, Query: "q1"}, []byte("x"))
	c.Put(cacheKey{Cube: "a", Version: 2, Query: "q2"}, []byte("y"))
	c.Put(cacheKey{Cube: "b", Version: 1, Query: "q1"}, []byte("z"))
	if n := c.InvalidateCube("a"); n != 2 {
		t.Fatalf("InvalidateCube(a) = %d, want 2", n)
	}
	if _, ok := c.Get(cacheKey{Cube: "b", Version: 1, Query: "q1"}); !ok {
		t.Fatal("unrelated cube's entry dropped")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestCacheCostCountsScenarioID(t *testing.T) {
	plain := &cacheEntry{key: cacheKey{Cube: "c", Query: "q"}}
	scoped := &cacheEntry{key: cacheKey{Cube: "c", Query: "q", Scenario: "scn-0123456789"}}
	if got, want := scoped.cost()-plain.cost(), len("scn-0123456789"); got != want {
		t.Fatalf("scenario id adds %d bytes to the cost, want %d", got, want)
	}
}

// streamCache drives a cache the way the server does — look up, and on
// a miss store the body — and reports whether the reference hit.
type streamCache struct {
	*resultCache
	body []byte
}

func (s streamCache) ref(i int) bool {
	key := cacheKey{Cube: "c", Version: 1, Query: fmt.Sprintf("q%06d", i)}
	if _, ok := s.Get(key); ok {
		return true
	}
	s.Put(key, s.body)
	return false
}

func (s streamCache) entryCost() int {
	return (&cacheEntry{key: cacheKey{Cube: "c", Query: "q000000"}, body: s.body}).cost()
}

// TestCacheOneShotStreamStaysSmall is why the budget is a cap and not a
// fill target: 10 000 never-repeated queries hold the initial limit,
// not the budget, and the ghosts remembering them stay bounded.
func TestCacheOneShotStreamStaysSmall(t *testing.T) {
	const budget = 2 << 20
	s := streamCache{newResultCache(budget), make([]byte, 1024)}
	cost := s.entryCost()
	for i := 0; i < 10000; i++ {
		if s.ref(i) {
			t.Fatalf("one-shot key %d hit", i)
		}
		if s.Bytes() > initialCacheLimit+cost {
			t.Fatalf("after %d one-shot keys the cache holds %d bytes, limit %d", i+1, s.Bytes(), initialCacheLimit)
		}
	}
	if s.Limit() != initialCacheLimit {
		t.Fatalf("limit grew to %d without any reuse", s.Limit())
	}
	if maxGhosts := (budget-initialCacheLimit)/cost + 1; len(s.ghosts) > maxGhosts || len(s.ghostQ) > maxGhosts {
		t.Fatalf("%d ghosts (%d queued) stand for more than the %d bytes the cache could grow by",
			len(s.ghosts), len(s.ghostQ), budget-initialCacheLimit)
	}
	if s.ghostBytes > budget-initialCacheLimit {
		t.Fatalf("ghostBytes = %d exceeds budget − limit = %d", s.ghostBytes, budget-initialCacheLimit)
	}
}

// TestCacheGrowsToReuseDistance repeats every key once, 2×gap
// references after its insert: only repeats that set a new distance
// record may miss, and the limit ends at least that distance.
func TestCacheGrowsToReuseDistance(t *testing.T) {
	const gap = 400
	s := streamCache{newResultCache(8 << 20), make([]byte, 1024)}
	distance := 2 * gap * s.entryCost()
	if distance <= initialCacheLimit {
		t.Fatalf("reuse distance %d does not exceed the initial limit", distance)
	}
	lost, records := 0, 0
	for i := 0; i < 6*gap; i++ {
		s.ref(i)
		if i >= gap {
			before := s.Limit()
			if !s.ref(i - gap) {
				lost++
			}
			if s.Limit() > before {
				records++
			}
		}
	}
	if lost > records || records == 0 {
		t.Fatalf("%d repeats lost for %d distance records", lost, records)
	}
	if s.Limit() < distance || s.Limit() > 8<<20 {
		t.Fatalf("limit = %d after reuse at distance %d", s.Limit(), distance)
	}
	if s.Bytes() > s.Limit() {
		t.Fatalf("cache holds %d bytes over its limit %d", s.Bytes(), s.Limit())
	}
}

// TestCacheClockAdvancesOnHit is the regression test for measuring
// reuse distance in inserted bytes only. Cold keys repeat once, gap
// steps after their insert; between any two steps a small hot set takes
// four hits. Every hot hit moves an older entry in front of the waiting
// cold key exactly as an insert would, so the cold key's true distance
// is 2×gap inserts plus the hot set. A clock that ignores hits measures
// 2×gap, settles the limit there — enough for the hot set to keep
// hitting, so nothing corrects it — and loses every cold repeat forever.
func TestCacheClockAdvancesOnHit(t *testing.T) {
	const (
		gap   = 200
		hot   = gap
		steps = 12 * gap
	)
	s := streamCache{newResultCache(16 << 20), make([]byte, 1024)}
	late, lateHits := 0, 0 // cold repeats in the second half of the stream
	for i, h := 0, 0; i < steps; i++ {
		s.ref(i)
		if i >= gap {
			hit := s.ref(i - gap)
			if i >= steps/2 {
				late++
				if hit {
					lateHits++
				}
			}
		}
		for k := 0; k < 4; k++ {
			s.ref(1_000_000 + h%hot)
			h++
		}
	}
	if lateHits != late {
		t.Fatalf("%d of %d cold repeats hit once the distance had been observed; limit %d",
			lateHits, late, s.Limit())
	}
	if need := (2*gap + hot) * s.entryCost(); s.Limit() < need {
		t.Fatalf("limit = %d, the cold keys' reuse distance is %d", s.Limit(), need)
	}
}

// TestCacheLimitCountsAnEntryOnce: the limit is the room the observed
// reuse took, not the bytes that passed through meanwhile. Long keys
// repeat 400 steps after their insert and short keys 50, so most short
// keys are inserted and hit inside one long key's wait. Holding a long
// key until its repeat takes the distinct entries referenced in between
// — 400 new and 50 older short keys, 400 new and 399 older long ones,
// itself — and a limit of that size loses no repeat; counting every
// reference instead (400 more short-key hits) would hold a quarter more
// bodies for the same hits.
func TestCacheLimitCountsAnEntryOnce(t *testing.T) {
	const (
		long, short = 400, 50
		steps       = 10 * long
		distinct    = 2*long + long + short // entries a long key waits behind, and itself
	)
	s := streamCache{newResultCache(16 << 20), make([]byte, 1024)}
	late, lateHits := 0, 0
	for i := 0; i < steps; i++ {
		s.ref(i)
		s.ref(1_000_000 + i)
		if i >= short {
			s.ref(1_000_000 + i - short)
		}
		if i >= long {
			hit := s.ref(i - long)
			if i >= steps/2 {
				late++
				if hit {
					lateHits++
				}
			}
		}
	}
	if lateHits != late {
		t.Fatalf("%d of %d long repeats hit once their distance had been observed; limit %d", lateHits, late, s.Limit())
	}
	if got, want := s.Limit(), distinct*s.entryCost(); got < want || got > want+want/100 {
		t.Fatalf("limit = %d (%d entries), the long keys wait behind %d distinct entries (%d bytes)",
			got, got/s.entryCost(), distinct, want)
	}
}

func TestCacheInvalidateLeavesNoGhosts(t *testing.T) {
	s := streamCache{newResultCache(4 << 20), make([]byte, 1024)}
	n := initialCacheLimit / s.entryCost() / 2 // all resident, nothing evicted for space
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			s.ref(i)
		}
		scn := cacheKey{Cube: "other", Scenario: "s1", ScenarioRev: int64(round), Query: "q"}
		s.Put(scn, s.body)
		if got := s.InvalidateScenario("s1"); got != 1 {
			t.Fatalf("InvalidateScenario dropped %d entries, want 1", got)
		}
		if got := s.InvalidateCube("c"); got < n-1 {
			t.Fatalf("InvalidateCube dropped %d entries, want about %d", got, n)
		}
		if len(s.ghosts) != 0 || s.ghostBytes != 0 {
			t.Fatalf("invalidation left %d ghosts", len(s.ghosts))
		}
	}
	if s.Limit() != initialCacheLimit {
		t.Fatalf("re-inserting invalidated keys grew the limit to %d", s.Limit())
	}
}

func TestCacheAdmitsBodyOverCurrentLimit(t *testing.T) {
	c := newResultCache(4 << 20)
	key := cacheKey{Cube: "c", Query: "big"}
	c.Put(key, make([]byte, 1<<20))
	if body, ok := c.Get(key); !ok || len(body) != 1<<20 {
		t.Fatal("a body over the current limit but within the budget was not cached")
	}
	if c.Limit() < 1<<20 || c.Limit() > 4<<20 {
		t.Fatalf("limit = %d after admitting a 1 MiB body under a 4 MiB budget", c.Limit())
	}
}

func TestCacheConcurrentGetPut(t *testing.T) {
	const budget = 1 << 20
	s := streamCache{newResultCache(budget), make([]byte, 512)}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				s.ref((i*7 + w*13) % 3000) // overlapping keys, reuse beyond the initial limit
				if i%500 == 0 {
					s.InvalidateCube("nobody")
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Bytes() > s.Limit() || s.Limit() > budget || s.ghostBytes > budget-s.Limit() {
		t.Fatalf("bytes %d, limit %d, ghost bytes %d under budget %d", s.Bytes(), s.Limit(), s.ghostBytes, budget)
	}
	if s.Limit() == initialCacheLimit {
		t.Fatal("reuse beyond the initial limit never grew it")
	}
}
