package chunk

import "testing"

// recordTier is the read-only Tier the pool tests page from: a segment
// file without the file. It holds one encoded record per chunk and
// decodes on every fault.
type recordTier struct {
	capacity int
	recs     map[int][]byte // never written after newRecordTier
}

// newRecordTier encodes every chunk s holds into a fresh tier.
func newRecordTier(s *Store) *recordTier {
	t := &recordTier{capacity: s.geom.ChunkCap(), recs: make(map[int][]byte)}
	for _, id := range s.ChunkIDs() {
		t.recs[id] = encodeChunk(s.PeekChunk(id))
	}
	return t
}

func (t *recordTier) ReadChunkAt(id int) (*Chunk, float64, error) {
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

// Eviction is only ever a free drop: a chunk faulted in is evicted
// without I/O and the tier keeps serving it, so read churn over the
// budget evicts and re-faults, and every drop is accounted once.
func TestPoolCleanEvictionSkipsWriteback(t *testing.T) {
	const budget = 70
	s := pagedStore(t, budget)
	base := s.SpillStats().Evictions
	for round := 0; round < 2; round++ {
		for i := 0; i < 64; i++ {
			if got := s.Get([]int{i}); got != float64(i+1) {
				t.Fatalf("Get(%d) = %v", i, got)
			}
		}
	}
	st := s.SpillStats()
	if st.Evictions <= base || st.Spilled == 0 || st.ResidentBytes > budget {
		t.Fatalf("read churn over budget should evict by dropping: %+v", st)
	}
	// Each drop counts once: the 16 chunks present at attach and every
	// fault since, less what is resident now, left by eviction.
	if st.Evictions != 16+st.Faults-st.Resident {
		t.Fatalf("%d evictions for %d faults with %d chunks resident", st.Evictions, st.Faults, st.Resident)
	}
}
