package chunk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometryBasics(t *testing.T) {
	g := MustGeometry([]int{16, 16, 16}, []int{4, 4, 4})
	if g.NumDims() != 3 {
		t.Fatalf("NumDims = %d", g.NumDims())
	}
	if g.NumChunks() != 64 {
		t.Fatalf("NumChunks = %d, want 64", g.NumChunks())
	}
	if g.ChunkCap() != 64 {
		t.Fatalf("ChunkCap = %d, want 64", g.ChunkCap())
	}
	for i := 0; i < 3; i++ {
		if g.ChunksPerDim(i) != 4 {
			t.Fatalf("ChunksPerDim(%d) = %d, want 4", i, g.ChunksPerDim(i))
		}
	}
}

func TestGeometryErrors(t *testing.T) {
	if _, err := NewGeometry([]int{4}, []int{4, 4}); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if _, err := NewGeometry([]int{0}, []int{1}); err == nil {
		t.Fatal("zero extent should fail")
	}
	if _, err := NewGeometry([]int{4}, []int{0}); err == nil {
		t.Fatal("zero chunk dim should fail")
	}
	// 2^64 cells overflow an int; a 2^32-cell chunk overflows its
	// int32 offsets. A decoded schema can claim either.
	wide := make([]int, 64)
	for i := range wide {
		wide[i] = 2
	}
	if _, err := NewGeometry(wide, wide); err == nil {
		t.Fatal("a cell count past MaxInt should fail")
	}
	if _, err := NewGeometry([]int{1 << 16, 1 << 16}, []int{1 << 16, 1 << 16}); err == nil {
		t.Fatal("a chunk capacity past MaxInt32 should fail")
	}
	// Chunk dim larger than extent is clamped, not an error.
	g := MustGeometry([]int{3}, []int{10})
	if g.ChunkDims[0] != 3 || g.ChunksPerDim(0) != 1 {
		t.Fatalf("clamping failed: %v", g.ChunkDims)
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	g := MustGeometry([]int{10, 7, 5}, []int{4, 3, 2})
	ccoord := make([]int, 3)
	addr := make([]int, 3)
	back := make([]int, 3)
	for a := 0; a < 10; a++ {
		for b := 0; b < 7; b++ {
			for c := 0; c < 5; c++ {
				addr[0], addr[1], addr[2] = a, b, c
				off := g.Split(addr, ccoord)
				g.Join(ccoord, off, back)
				if back[0] != a || back[1] != b || back[2] != c {
					t.Fatalf("round trip %v -> %v", addr, back)
				}
			}
		}
	}
}

func TestCanonicalIDRoundTrip(t *testing.T) {
	g := MustGeometry([]int{10, 7, 5}, []int{4, 3, 2})
	ccoord := make([]int, 3)
	back := make([]int, 3)
	for id := 0; id < g.NumChunks(); id++ {
		g.CoordOf(id, ccoord)
		if got := g.CanonicalID(ccoord); got != id {
			t.Fatalf("CanonicalID(CoordOf(%d)) = %d", id, got)
		}
		copy(back, ccoord)
	}
}

// TestFig6ChunkNumbering checks the dimension-order enumeration against
// the paper's Fig. 6: a 4×4×4-chunk array read in order ABC numbers the
// chunks so that A varies fastest: chunks 1..4 run along A, chunk 5 is
// (a0, b1, c0), chunk 17 is (a0, b0, c1).
func TestFig6ChunkNumbering(t *testing.T) {
	g := MustGeometry([]int{16, 16, 16}, []int{4, 4, 4})
	order := []int{0, 1, 2} // A, B, C
	seq, err := g.EnumerateOrder(order)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 64 {
		t.Fatalf("enumerated %d chunks, want 64", len(seq))
	}
	wantFirst := [][]int{
		{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}, // chunks 1-4 along A
		{0, 1, 0}, // chunk 5
	}
	for i, want := range wantFirst {
		for d := 0; d < 3; d++ {
			if seq[i][d] != want[d] {
				t.Fatalf("chunk %d = %v, want %v", i+1, seq[i], want)
			}
		}
	}
	// Chunk 17 (index 16) starts the c1 slab.
	if got := seq[16]; got[0] != 0 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("chunk 17 = %v, want [0 0 1]", got)
	}
	// OrderID agrees with the enumeration position.
	for i, cc := range seq {
		if got := g.OrderID(cc, order); got != i {
			t.Fatalf("OrderID(%v) = %d, want %d", cc, got, i)
		}
	}
}

func TestEnumerateOrderValidation(t *testing.T) {
	g := MustGeometry([]int{4, 4}, []int{2, 2})
	if _, err := g.EnumerateOrder([]int{0}); err == nil {
		t.Fatal("short order should fail")
	}
	if _, err := g.EnumerateOrder([]int{0, 0}); err == nil {
		t.Fatal("non-permutation should fail")
	}
}

func TestChunkRangeOf(t *testing.T) {
	g := MustGeometry([]int{12}, []int{3})
	lo, hi := g.ChunkRangeOf(0, 0, 12)
	if lo != 0 || hi != 4 {
		t.Fatalf("full range = [%d,%d), want [0,4)", lo, hi)
	}
	lo, hi = g.ChunkRangeOf(0, 4, 7)
	if lo != 1 || hi != 3 {
		t.Fatalf("range [4,7) = chunks [%d,%d), want [1,3)", lo, hi)
	}
	lo, hi = g.ChunkRangeOf(0, 5, 5)
	if lo != 0 || hi != 0 {
		t.Fatalf("empty range = [%d,%d), want [0,0)", lo, hi)
	}
}

func TestChunkDenseSparse(t *testing.T) {
	c := NewSparse(100)
	if c.Rep() != Sparse {
		t.Fatal("new sparse chunk should be Sparse")
	}
	c.Set(5, 1)
	c.Set(90, 2)
	if c.Get(5) != 1 || c.Get(90) != 2 || !math.IsNaN(c.Get(50)) {
		t.Fatal("sparse get/set mismatch")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Filling past the threshold promotes to dense.
	for i := 0; i < 30; i++ {
		c.Set(i, float64(i))
	}
	if c.Rep() != Dense {
		t.Fatal("chunk should have been promoted to dense")
	}
	if c.Get(90) != 2 {
		t.Fatal("promotion lost a value")
	}
	// Deleting back down and compressing returns to sparse.
	for i := 0; i < 30; i++ {
		c.Set(i, math.NaN())
	}
	if !c.Compress() {
		t.Fatal("Compress should convert a now-sparse dense chunk")
	}
	if c.Rep() != Sparse || c.Get(90) != 2 || c.Len() != 1 {
		t.Fatal("compression lost data")
	}
}

func TestChunkAdd(t *testing.T) {
	c := NewSparse(10)
	c.Add(3, 5)
	c.Add(3, 7)
	if c.Get(3) != 12 {
		t.Fatalf("Add accumulation = %v, want 12", c.Get(3))
	}
	c.Add(3, math.NaN()) // no-op
	if c.Get(3) != 12 {
		t.Fatal("Add(NaN) should be a no-op")
	}
}

func TestChunkForEachOrderAndClone(t *testing.T) {
	c := NewSparse(50)
	c.Set(40, 4)
	c.Set(2, 1)
	c.Set(17, 3)
	var offs []int
	c.ForEach(func(off int, v float64) bool {
		offs = append(offs, off)
		return true
	})
	if len(offs) != 3 || offs[0] != 2 || offs[1] != 17 || offs[2] != 40 {
		t.Fatalf("ForEach order = %v", offs)
	}
	cl := c.Clone()
	cl.Set(2, 99)
	if c.Get(2) != 1 {
		t.Fatal("clone mutation leaked")
	}
	// Early stop.
	n := 0
	c.ForEach(func(off int, v float64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestChunkOffsetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range offset should panic")
		}
	}()
	NewSparse(4).Get(4)
}

func TestStoreAsCubeStore(t *testing.T) {
	g := MustGeometry([]int{8, 8}, []int{4, 4})
	s := NewStore(g)
	s.Set([]int{1, 2}, 10)
	s.Set([]int{7, 7}, 20)
	if s.Get([]int{1, 2}) != 10 || !math.IsNaN(s.Get([]int{0, 0})) {
		t.Fatal("get/set mismatch")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.NumChunks() != 2 {
		t.Fatalf("NumChunks = %d", s.NumChunks())
	}
	// Deleting the only cell of a chunk drops the chunk.
	s.Set([]int{7, 7}, math.NaN())
	if s.NumChunks() != 1 {
		t.Fatalf("NumChunks after delete = %d, want 1", s.NumChunks())
	}
	// NonNull visits deterministically.
	var got [][2]int
	s.NonNull(func(addr []int, v float64) bool {
		got = append(got, [2]int{addr[0], addr[1]})
		return true
	})
	if len(got) != 1 || got[0] != [2]int{1, 2} {
		t.Fatalf("NonNull = %v", got)
	}
	// Clone is deep.
	cl := s.Clone()
	cl.Set([]int{1, 2}, 99)
	if s.Get([]int{1, 2}) != 10 {
		t.Fatal("store clone mutation leaked")
	}
}

func TestStoreReadAccounting(t *testing.T) {
	g := MustGeometry([]int{8}, []int{4})
	s := NewStore(g)
	s.Set([]int{0}, 1)
	var seen []int
	s.SetReadHook(func(id int) { seen = append(seen, id) })
	if c := s.ReadChunk(0); c == nil || c.Len() != 1 {
		t.Fatal("ReadChunk(0) should return the chunk")
	}
	if c := s.ReadChunk(1); c != nil {
		t.Fatal("ReadChunk of empty slot should be nil")
	}
	if s.Reads() != 2 || len(seen) != 2 {
		t.Fatalf("Reads = %d, hook saw %v", s.Reads(), seen)
	}
	s.ResetReads()
	if s.Reads() != 0 {
		t.Fatal("ResetReads failed")
	}
	// PeekChunk does not count.
	s.PeekChunk(0)
	if s.Reads() != 0 {
		t.Fatal("PeekChunk should not count as a read")
	}
}

func TestPutChunk(t *testing.T) {
	g := MustGeometry([]int{8}, []int{4})
	s := NewStore(g)
	c := NewSparse(4)
	c.Set(1, 5)
	s.PutChunk(1, c)
	if s.Get([]int{5}) != 5 {
		t.Fatalf("PutChunk placement wrong: %v", s.Get([]int{5}))
	}
	s.PutChunk(1, nil)
	if s.NumChunks() != 0 {
		t.Fatal("PutChunk(nil) should delete")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range PutChunk should panic")
		}
	}()
	s.PutChunk(99, c)
}

// Property: a chunked store behaves exactly like a reference map under a
// random workload, for random geometries.
func TestQuickStoreMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ext := []int{1 + r.Intn(20), 1 + r.Intn(20)}
		cd := []int{1 + r.Intn(6), 1 + r.Intn(6)}
		g, err := NewGeometry(ext, cd)
		if err != nil {
			return false
		}
		s := NewStore(g)
		ref := map[[2]int]float64{}
		for i := 0; i < 300; i++ {
			a := [2]int{r.Intn(ext[0]), r.Intn(ext[1])}
			if r.Intn(4) == 0 {
				s.Set(a[:], math.NaN())
				delete(ref, a)
			} else {
				v := float64(1 + r.Intn(100))
				s.Set(a[:], v)
				ref[a] = v
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for a, v := range ref {
			if s.Get(a[:]) != v {
				return false
			}
		}
		n := 0
		s.NonNull(func(addr []int, v float64) bool {
			if ref[[2]int{addr[0], addr[1]}] != v {
				return false
			}
			n++
			return true
		})
		return n == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: sparse and dense chunks agree cell-for-cell under random
// operations.
func TestQuickChunkRepsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := 32 + r.Intn(64)
		sp := NewSparse(capacity)
		de := NewDense(capacity)
		for i := 0; i < 200; i++ {
			off := r.Intn(capacity)
			switch r.Intn(3) {
			case 0:
				v := float64(r.Intn(50))
				sp.Set(off, v)
				de.Set(off, v)
			case 1:
				sp.Set(off, math.NaN())
				de.Set(off, math.NaN())
			case 2:
				v := float64(r.Intn(10))
				sp.Add(off, v)
				de.Add(off, v)
			}
		}
		if sp.Len() != de.Len() {
			return false
		}
		for off := 0; off < capacity; off++ {
			a, b := sp.Get(off), de.Get(off)
			if math.IsNaN(a) != math.IsNaN(b) {
				return false
			}
			if !math.IsNaN(a) && a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDenseChunkSet(b *testing.B) {
	c := NewDense(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Set(i%4096, float64(i))
	}
}

func BenchmarkSparseChunkSet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewSparse(4096)
		for j := 0; j < 256; j++ {
			c.Set(j*16, float64(j))
		}
	}
}

func TestForceSparse(t *testing.T) {
	c := NewDense(10)
	for i := 0; i < 10; i++ {
		c.Set(i, float64(i+1))
	}
	// Full chunk: Compress refuses (above threshold), ForceSparse works.
	if c.Compress() {
		t.Fatal("Compress should refuse a full chunk")
	}
	if !c.ForceSparse() {
		t.Fatal("ForceSparse should convert")
	}
	if c.Rep() != Sparse || c.Len() != 10 || c.Get(7) != 8 {
		t.Fatal("ForceSparse lost data")
	}
	// Already sparse: no-op.
	if c.ForceSparse() {
		t.Fatal("ForceSparse on sparse chunk should report false")
	}
}

func TestForceSparseAll(t *testing.T) {
	g := MustGeometry([]int{8}, []int{4})
	s := NewStore(g)
	for i := 0; i < 8; i++ {
		s.Set([]int{i}, 1) // both chunks fully dense
	}
	denseBytes := s.MemBytes()
	if n := s.ForceSparseAll(); n != 2 {
		t.Fatalf("converted %d chunks, want 2", n)
	}
	if s.MemBytes() <= denseBytes {
		t.Fatalf("full sparse chunks should be larger: %d vs %d", s.MemBytes(), denseBytes)
	}
	for i := 0; i < 8; i++ {
		if s.Get([]int{i}) != 1 {
			t.Fatal("conversion lost data")
		}
	}
}

func TestPutChunkCapacityMismatchPanics(t *testing.T) {
	g := MustGeometry([]int{8}, []int{4})
	s := NewStore(g)
	bad := NewSparse(99)
	bad.Set(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("capacity mismatch should panic")
		}
	}()
	s.PutChunk(0, bad)
}
