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
	delete(want, 0)
	s.Set([]int{0}, math.NaN())
	pageOut(t, s, 70)
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
	// The clone of a paged store is resident, equal and writable, and
	// its writes never reach the paged store.
	cl := s.Clone().(*Store)
	if cl.Pooled() || cl.NumChunks() != s.NumChunks() || cl.Len() != len(want) {
		t.Fatalf("clone: pooled=%v NumChunks=%d/%d Len=%d/%d", cl.Pooled(), cl.NumChunks(), s.NumChunks(), cl.Len(), len(want))
	}
	for k, v := range want {
		if cl.Get([]int{k}) != v {
			t.Fatalf("clone cell %d differs", k)
		}
	}
	cl.Set([]int{3}, -1)
	cl.Set([]int{6}, math.NaN())
	if cl.Get([]int{3}) != -1 || !math.IsNaN(cl.Get([]int{6})) {
		t.Fatal("clone writes did not read back")
	}
	if s.Get([]int{3}) != 3 || s.Get([]int{6}) != 6 {
		t.Fatal("clone writes reached the paged store")
	}
}

// A paged store is read-only: Set, PutChunk and the forced
// representation sweeps panic with one message, whether the chunk is
// resident, spilled or absent, and Settle converts nothing — the
// store's chunks and its pool accounting stay as the tier left them.
func TestPagedStoreIsReadOnly(t *testing.T) {
	s := pagedStore(t, 70)
	writes := map[string]func(){
		"Set resident":      func() { s.Set([]int{63}, 1) },
		"Set spilled":       func() { s.Set([]int{0}, 1) },
		"Set NaN":           func() { s.Set([]int{0}, math.NaN()) },
		"PutChunk":          func() { s.PutChunk(2, NewDense(4)) },
		"PutChunk(nil)":     func() { s.PutChunk(2, nil) },
		"PutChunk range":    func() { s.PutChunk(99, nil) },
		"ForceSparseAll":    func() { s.ForceSparseAll() },
		"ForceRunEncodeAll": func() { s.ForceRunEncodeAll() },
	}
	stats, bytes := s.SpillStats(), s.MemBytes()
	if stats.Resident == 0 {
		t.Fatal("nothing resident; the sweeps are vacuous")
	}
	for name, write := range writes {
		func() {
			defer func() {
				if r := recover(); r != "chunk: a paged store is read-only" {
					t.Errorf("%s: recovered %v, want the read-only panic", name, r)
				}
			}()
			write()
		}()
	}
	if n := s.Settle(); n != 0 {
		t.Fatalf("Settle on a paged store converted %d chunks", n)
	}
	if got := s.SpillStats(); got != stats || s.MemBytes() != bytes {
		t.Fatalf("a refused write or Settle moved the pool: %+v (%d B) -> %+v (%d B)", stats, bytes, got, s.MemBytes())
	}
	if s.Len() != 64 || s.NumChunks() != 16 || s.Get([]int{0}) != 1 || s.Get([]int{63}) != 64 {
		t.Fatalf("a refused write changed the store: Len=%d NumChunks=%d", s.Len(), s.NumChunks())
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

	// A resident chunk the tier lacks would vanish from the chunk set:
	// attaching refuses it and leaves the store writable.
	s = NewStore(MustGeometry([]int{8}, []int{4}))
	s.Set([]int{1}, 1)
	tier := newRecordTier(s)
	s.Set([]int{6}, 2)
	if err := s.AttachTier(tier, 100); err == nil {
		t.Fatal("a resident chunk the tier lacks should fail")
	}
	if s.Pooled() {
		t.Fatal("a refused attach left a tier behind")
	}
	s.Set([]int{7}, 3)
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

// Property: a paged store reads exactly like a resident one, for random
// tiny budgets, under churn from reads, pins and settles after paging
// out — every write happens before it.
func TestQuickSpilledMatchesResident(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := MustGeometry([]int{40}, []int{1 + r.Intn(5)})
		plain := NewStore(g)
		spilled := NewStore(g)
		for i := 0; i < 300; i++ {
			a := []int{r.Intn(40)}
			v := math.NaN()
			if r.Intn(4) != 0 {
				v = float64(1 + r.Intn(50))
			}
			plain.Set(a, v)
			spilled.Set(a, v)
		}
		pageOut(t, spilled, 24+r.Intn(100))
		var pinned []int
		for i := 0; i < 150; i++ {
			switch r.Intn(8) {
			case 0:
				id := r.Intn(g.NumChunks())
				spilled.Pin(id)
				pinned = append(pinned, id)
			case 1:
				if len(pinned) > 0 {
					spilled.Unpin(pinned[len(pinned)-1])
					pinned = pinned[:len(pinned)-1]
				}
			case 2:
				if spilled.Settle() != 0 {
					return false
				}
			default:
				spilled.Get([]int{r.Intn(40)})
			}
		}
		for _, id := range pinned {
			spilled.Unpin(id)
		}
		if plain.Len() != spilled.Len() || plain.NumChunks() != spilled.NumChunks() {
			return false
		}
		if st := spilled.SpillStats(); st.Pinned != 0 || st.Resident+st.Spilled != plain.NumChunks() {
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

// freshChunkIDs is ChunkIDs as it was before the cache: the tier's
// index on a paged store, the resident map otherwise, sorted from
// scratch.
func freshChunkIDs(s *Store) []int {
	var ids []int
	if p := s.pool; p != nil {
		ids = p.tier.IDs()
	} else {
		for id := range s.chunks {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// TestChunkIDsCacheTracksMutations walks a store through everything
// that creates, deletes or pages a chunk — a Set into a new chunk, a NaN
// Set that empties one, PutChunk in both directions, attaching a tier,
// eviction, fault-in, a settle, a clone and a write to it
// — and after each step the cached ChunkIDs must equal a fresh sort.
// The returned slice is the caller's: scribbling on it must not reach
// the cache.
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
	faults := s.SpillStats().Faults
	for i := 0; i < 64; i++ {
		s.Get([]int{i})
	}
	if s.SpillStats().Faults == faults {
		t.Fatal("nothing faulted in; the paging steps are vacuous")
	}
	check("fault-in and eviction")
	s.Settle()
	check("Settle")

	parent := s
	s = parent.Clone().(*Store)
	check("clone")
	s.Set([]int{30}, 8)
	check("Set on the clone")
	s = parent
	check("parent after the clone's Set")
}
