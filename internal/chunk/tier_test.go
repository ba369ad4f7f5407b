package chunk

import (
	"errors"
	"math"
	"sync"
	"testing"
)

// recordTier is the read-only Tier the pool tests page from: a segment
// file without the file. It holds one encoded record per chunk, decodes
// on every fault, and is shared by reference between clones — the last
// Close retires it, and reads after that fail.
type recordTier struct {
	capacity int
	recs     map[int][]byte // never written after newRecordTier

	mu   sync.Mutex
	refs int
}

// newRecordTier encodes every chunk s holds into a fresh tier.
func newRecordTier(s *Store) *recordTier {
	t := &recordTier{capacity: s.geom.ChunkCap(), recs: make(map[int][]byte), refs: 1}
	for _, id := range s.ChunkIDs() {
		t.recs[id] = encodeChunk(s.PeekChunk(id))
	}
	return t
}

var errTierClosed = errors.New("chunk: read from a closed tier")

func (t *recordTier) ReadChunkAt(id int) (*Chunk, float64, error) {
	t.mu.Lock()
	closed := t.refs == 0
	t.mu.Unlock()
	if closed {
		return nil, 0, errTierClosed
	}
	rec, ok := t.recs[id]
	if !ok {
		return nil, 0, nil
	}
	c, err := decodeChunk(rec, t.capacity)
	return c, 0, err
}

func (t *recordTier) Contains(id int) bool { _, ok := t.recs[id]; return ok }
func (t *recordTier) Cells(id int) int     { return RecordCells(t.recs[id]) }

func (t *recordTier) IDs() []int {
	ids := make([]int, 0, len(t.recs))
	for id := range t.recs {
		ids = append(ids, id)
	}
	return ids
}

func (t *recordTier) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.refs > 0 {
		t.refs--
	}
	return nil
}

func (t *recordTier) CloneTier() (Tier, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.refs == 0 {
		return nil, false
	}
	t.refs++
	return t, true
}

// pageOut puts s behind a recordTier holding every chunk it has now,
// under the budget: the chunks are clean, so the pool may drop them.
func pageOut(t testing.TB, s *Store, budget int) *recordTier {
	t.Helper()
	tier := newRecordTier(s)
	if err := s.AttachTier(tier, budget); err != nil {
		t.Fatal(err)
	}
	return tier
}

// pagedStore is 64 cells (16 chunks of 4, cell i holding i+1) paged
// out under the budget; at 70 bytes about two chunks stay resident.
func pagedStore(t testing.TB, budget int) *Store {
	t.Helper()
	s := NewStore(MustGeometry([]int{64}, []int{4}))
	for i := 0; i < 64; i++ {
		s.Set([]int{i}, float64(i+1))
	}
	pageOut(t, s, budget)
	return s
}

// Clone of a pooled store must share the backing tier rather than
// forcing every chunk resident (the pre-tier Clone materialized the
// whole cube in RAM).
func TestPoolCloneSharesTier(t *testing.T) {
	s := pagedStore(t, 70)
	cl, ok := s.Clone().(*Store)
	if !ok {
		t.Fatal("clone is not a chunk store")
	}
	if !cl.Pooled() {
		t.Fatal("clone of a pooled store should stay pooled")
	}
	if st := cl.SpillStats(); st.Resident >= 16 {
		t.Fatalf("clone forced full residency: %d chunks resident", st.Resident)
	}
	if cl.Len() != 64 || cl.NumChunks() != 16 {
		t.Fatalf("clone Len=%d NumChunks=%d, want 64/16", cl.Len(), cl.NumChunks())
	}
	for i := 0; i < 64; i++ {
		if got := cl.Get([]int{i}); got != float64(i+1) {
			t.Fatalf("clone Get(%d) = %v, want %v", i, got, float64(i+1))
		}
	}

	// Divergence both ways: the clone's writes never reach the parent,
	// and the parent's post-clone writes never reach the clone — even
	// after the parent rewrites every cell (its writes stay resident;
	// the shared tier never changes).
	cl.Set([]int{0}, 99)
	if got := s.Get([]int{0}); got != 1 {
		t.Fatalf("parent saw clone write: Get(0) = %v", got)
	}
	s.Set([]int{5}, -5)
	if got := cl.Get([]int{5}); got != 6 {
		t.Fatalf("clone saw parent write: Get(5) = %v", got)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 64; i++ {
			s.Set([]int{i}, s.Get([]int{i}))
		}
	}
	if cl.Get([]int{0}) != 99 || cl.Get([]int{63}) != 64 {
		t.Fatal("clone values drifted under parent churn")
	}

	// Deleting a tier-held chunk from the clone hides it without
	// touching the shared tier.
	for off := 60; off < 64; off++ {
		cl.Set([]int{off}, math.NaN())
	}
	for _, id := range cl.ChunkIDs() {
		if id == 15 {
			t.Fatal("deleted chunk still listed in clone")
		}
	}
	if !math.IsNaN(cl.Get([]int{63})) {
		t.Fatal("deleted cell still readable in clone")
	}
	if got := s.Get([]int{63}); got != 64 {
		t.Fatalf("clone delete leaked into parent: Get(63) = %v", got)
	}

	// The tier is refcounted: the parent closing its tier must not pull
	// it out from under the clone.
	if err := s.CloseSpill(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 60; i++ {
		if got := cl.Get([]int{i}); got != float64(i+1) {
			t.Fatalf("clone Get(%d) = %v after parent CloseSpill", i, got)
		}
	}
	if err := cl.CloseSpill(); err != nil {
		t.Fatal(err)
	}
}

// Eviction is only ever a clean drop. A chunk faulted in and not
// mutated is evicted for free and the tier keeps serving it; a chunk
// mutated after paging is dirty, never evicted and never written
// anywhere — it stays resident, every write reads back, and the budget
// yields.
func TestPoolCleanEvictionSkipsWriteback(t *testing.T) {
	const budget = 70
	s := pagedStore(t, budget)
	base := s.SpillStats().Evictions
	for i := 0; i < 64; i++ {
		if got := s.Get([]int{i}); got != float64(i+1) {
			t.Fatalf("Get(%d) = %v", i, got)
		}
	}
	if st := s.SpillStats(); st.Evictions <= base || st.Spilled == 0 {
		t.Fatalf("read churn over budget should evict by dropping: %+v", st)
	}

	before := s.SpillStats()
	for i := 0; i < 64; i++ {
		s.Set([]int{i}, -float64(i+1))
	}
	for i := 0; i < 64; i++ {
		if got := s.Get([]int{i}); got != -float64(i+1) {
			t.Fatalf("Get(%d) = %v after the write, want %v", i, got, -float64(i+1))
		}
	}
	st := s.SpillStats()
	if st.Resident != 16 || st.Spilled != 0 || st.ResidentBytes <= budget {
		t.Fatalf("mutated chunks left memory or the budget held: %+v", st)
	}
	// Each drop counts once: the 16 chunks present at attach and every
	// fault since, less what is resident now, left by eviction.
	if st.Evictions != 16+st.Faults-st.Resident {
		t.Fatalf("%d evictions for %d faults with %d chunks resident", st.Evictions, st.Faults, st.Resident)
	}
	// Rewriting faulted each chunk at most once: a dirtied chunk never left.
	if n := st.Faults - before.Faults; n > 16 {
		t.Fatalf("rewriting 16 chunks faulted %d times", n)
	}
	for i := 0; i < 64; i++ {
		s.Get([]int{i})
	}
	if again := s.SpillStats(); again.Evictions != st.Evictions || again.Faults != st.Faults {
		t.Fatalf("dirty resident chunks were evicted or re-faulted: %+v, then %+v", st, again)
	}
}
