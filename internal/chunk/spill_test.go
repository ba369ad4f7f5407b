package chunk

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSpillEvictsUnderBudget(t *testing.T) {
	// Budget for roughly 2 resident chunks (dense chunk = 32 B,
	// sparse 12 B/cell).
	s := pagedStore(t, 70)
	st := s.SpillStats()
	if st.Spilled == 0 {
		t.Fatalf("nothing spilled: resident=%d spilled=%d", st.Resident, st.Spilled)
	}
	if st.Evictions == 0 {
		t.Fatal("evictions must be surfaced once chunks spill")
	}
	if s.NumChunks() != 16 {
		t.Fatalf("NumChunks = %d, want 16", s.NumChunks())
	}
	if s.Len() != 64 {
		t.Fatalf("Len = %d, want 64 (spilled cells must count)", s.Len())
	}
	// Every value readable; reads fault spilled chunks back in.
	for i := 0; i < 64; i++ {
		if got := s.Get([]int{i}); got != float64(i+1) {
			t.Fatalf("Get(%d) = %v, want %v", i, got, float64(i+1))
		}
	}
	if s.SpillStats().Faults == 0 {
		t.Fatal("full scan should have faulted spilled chunks")
	}
}

func TestSpillNonNullAndClone(t *testing.T) {
	s := NewStore(MustGeometry([]int{64}, []int{4}))
	want := map[int]float64{}
	for i := 0; i < 64; i += 3 {
		s.Set([]int{i}, float64(i))
		want[i] = float64(i)
	}
	pageOut(t, s, 70)
	delete(want, 0)
	s.Set([]int{0}, math.NaN())
	got := map[int]float64{}
	s.NonNull(func(addr []int, v float64) bool {
		got[addr[0]] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("NonNull visited %d cells, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("cell %d = %v, want %v", k, got[k], v)
		}
	}
	cl := s.Clone()
	for k, v := range want {
		if cl.Get([]int{k}) != v {
			t.Fatalf("clone cell %d differs", k)
		}
	}
}

func TestSpillRewriteSupersedesSpilledCopy(t *testing.T) {
	s := pagedStore(t, 70)
	// Overwrite a value in a chunk the tier holds, then verify the new
	// value survives further evictions.
	s.Set([]int{0}, 42)
	for i := 0; i < 64; i++ {
		s.Get([]int{i}) // churn the LRU
	}
	if got := s.Get([]int{0}); got != 42 {
		t.Fatalf("rewritten cell = %v, want 42", got)
	}
	// Deleting the last cell of a tier-held chunk removes it everywhere.
	s.Set([]int{4}, math.NaN())
	s.Set([]int{5}, math.NaN())
	s.Set([]int{6}, math.NaN())
	s.Set([]int{7}, math.NaN())
	for _, id := range s.ChunkIDs() {
		if id == 1 {
			t.Fatal("chunk 1 should be gone after deleting its cells")
		}
	}
	if s.Len() != 60 || s.NumChunks() != 15 || !math.IsNaN(s.Get([]int{5})) {
		t.Fatalf("after deleting chunk 1: Len=%d NumChunks=%d Get(5)=%v", s.Len(), s.NumChunks(), s.Get([]int{5}))
	}
}

func TestCloseSpill(t *testing.T) {
	s := pagedStore(t, 70)
	if err := s.CloseSpill(); err != nil {
		t.Fatal(err)
	}
	st := s.SpillStats()
	if st.Spilled != 0 || st.Resident != 16 {
		t.Fatalf("after CloseSpill: resident=%d spilled=%d", st.Resident, st.Spilled)
	}
	for i := 0; i < 64; i++ {
		if s.Get([]int{i}) != float64(i+1) {
			t.Fatal("data lost at CloseSpill")
		}
	}
	// Idempotent on a store without a tier.
	if err := s.CloseSpill(); err != nil {
		t.Fatal(err)
	}
}

func TestSpillErrors(t *testing.T) {
	s := NewStore(MustGeometry([]int{8}, []int{4}))
	if err := s.AttachTier(newRecordTier(s), 0); err == nil {
		t.Fatal("zero budget should fail")
	}
	if err := s.AttachTier(newRecordTier(s), 100); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachTier(newRecordTier(s), 100); err == nil {
		t.Fatal("a second tier should fail")
	}
}

func TestEncodeDecodeChunkRoundTrip(t *testing.T) {
	c := NewSparse(100)
	c.Set(3, 1.5)
	c.Set(99, -2)
	d, err := decodeChunk(encodeChunk(c), 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Get(3) != 1.5 || d.Get(99) != -2 {
		t.Fatal("round trip lost data")
	}
	// Corruption detection.
	if _, err := decodeChunk([]byte{1}, 100); err == nil {
		t.Fatal("short record should fail")
	}
	buf := encodeChunk(c)
	if _, err := decodeChunk(buf[:len(buf)-1], 100); err == nil {
		t.Fatal("truncated record should fail")
	}
	if _, err := decodeChunk(buf, 50); err == nil {
		t.Fatal("offset beyond capacity should fail")
	}
}

// Property: a paged store behaves exactly like a resident one under a
// random workload, for random tiny budgets — writes before paging out
// come back from the tier, writes and deletes after it stay resident
// over the tier's stale copies.
func TestQuickSpilledMatchesResident(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := MustGeometry([]int{40}, []int{1 + r.Intn(5)})
		plain := NewStore(g)
		spilled := NewStore(g)
		edit := func(stores ...*Store) {
			for i := 0; i < 150; i++ {
				a := []int{r.Intn(40)}
				v := math.NaN()
				if r.Intn(4) != 0 {
					v = float64(1 + r.Intn(50))
				}
				for _, s := range stores {
					s.Set(a, v)
				}
				spilled.Get([]int{r.Intn(40)}) // churn the pool
			}
		}
		edit(plain, spilled)
		pageOut(t, spilled, 24+r.Intn(100))
		edit(plain, spilled)
		if plain.Len() != spilled.Len() || plain.NumChunks() != spilled.NumChunks() {
			return false
		}
		for i := 0; i < 40; i++ {
			a, b := plain.Get([]int{i}), spilled.Get([]int{i})
			if math.IsNaN(a) != math.IsNaN(b) || (!math.IsNaN(a) && a != b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// freshChunkIDs is ChunkIDs as it was before the cache: the resident
// map and the tier's index, deduplicated and sorted from scratch.
func freshChunkIDs(s *Store) []int {
	if s.pool != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	var ids []int
	for id := range s.chunks {
		ids = append(ids, id)
	}
	if p := s.pool; p != nil {
		for _, id := range p.tier.IDs() {
			if _, resident := s.chunks[id]; !resident && !p.deleted[id] {
				ids = append(ids, id)
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// TestChunkIDsCacheTracksMutations walks a store through everything
// that creates, deletes or pages a chunk — a Set into a new chunk, a NaN
// Set that empties one, PutChunk in both directions, attaching a tier,
// eviction, fault-in, the run-encoding sweep, a clone — and after each
// step the cached ChunkIDs must equal a fresh sort. The returned slice
// is the caller's: scribbling on it must not reach the cache.
func TestChunkIDsCacheTracksMutations(t *testing.T) {
	g := MustGeometry([]int{64}, []int{4}) // 16 chunks of 4 cells
	s := NewStore(g)
	check := func(step string) {
		t.Helper()
		got := s.ChunkIDs()
		if want := freshChunkIDs(s); !slices.Equal(got, want) {
			t.Fatalf("%s: ChunkIDs = %v, fresh sort %v", step, got, want)
		}
		for i := range got {
			got[i] = -1
		}
		if again := s.ChunkIDs(); slices.Contains(again, -1) {
			t.Fatalf("%s: caller's write reached the cache: %v", step, again)
		}
	}
	check("empty")
	for _, i := range []int{40, 3, 17, 16, 63} {
		s.Set([]int{i}, float64(i))
		check("Set into a new chunk")
	}
	s.Set([]int{18}, 1)
	check("Set into a held chunk")
	s.Set([]int{3}, math.NaN())
	check("NaN Set that empties a chunk")
	s.PutChunk(7, NewDense(4))
	check("PutChunk of an empty chunk")
	full := NewDense(4)
	full.SetRun(0, 4, 2)
	s.PutChunk(7, full)
	check("PutChunk into a new slot")
	s.PutChunk(10, nil)
	check("PutChunk(nil) of a held chunk")

	pageOut(t, s, 40)
	check("tier attached")
	if st := s.SpillStats(); st.Spilled == 0 {
		t.Fatal("nothing spilled; the paging steps are vacuous")
	}
	for i := 0; i < 64; i += 5 {
		s.Set([]int{i}, float64(i))
		check("Set under a spill budget")
	}
	faults := s.SpillStats().Faults
	for i := 0; i < 64; i++ {
		s.Get([]int{i})
	}
	if s.SpillStats().Faults == faults {
		t.Fatal("nothing faulted in; the paging steps are vacuous")
	}
	check("fault-in and eviction")
	for _, i := range []int{16, 17, 18} {
		s.Set([]int{i}, math.NaN())
	}
	check("NaN Sets that empty a tier-held chunk")
	s.EncodeRunsAll()
	check("EncodeRunsAll")

	parent := s
	s = parent.Clone().(*Store)
	check("clone")
	s.Set([]int{30}, 8)
	check("Set on the clone")
	s = parent
	check("parent after the clone's Set")
}
