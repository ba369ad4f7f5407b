package chunk

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"whatifolap/internal/cube"
)

// chainFixture builds a 2-layer chain over a small chunked base:
//
//	base:    (0,0)=1 (0,1)=2 (1,0)=3
//	layer 1: (0,1)=20 (2,2)=99        — override + layer-only chunk cell
//	layer 2: (1,0) deleted, (0,0)=10  — tombstone + newer override
func chainFixture(t *testing.T) *Chain {
	t.Helper()
	g := MustGeometry([]int{4, 4}, []int{2, 2})
	st := NewStore(g)
	st.Set([]int{0, 0}, 1)
	st.Set([]int{0, 1}, 2)
	st.Set([]int{1, 0}, 3)
	l1 := NewLayer(g)
	l1.Set([]int{0, 1}, 20)
	l1.Set([]int{2, 2}, 99)
	l2 := NewLayer(g)
	l2.Delete([]int{1, 0})
	l2.Set([]int{0, 0}, 10)
	return NewChain(st, []*Layer{l1, l2})
}

func TestScenarioChainResolution(t *testing.T) {
	c := chainFixture(t)
	cases := []struct {
		addr []int
		want float64 // NaN = absent
	}{
		{[]int{0, 0}, 10},         // newest layer wins over base
		{[]int{0, 1}, 20},         // older layer wins over base
		{[]int{1, 0}, math.NaN()}, // tombstoned
		{[]int{2, 2}, 99},         // layer-only cell in a chunk the base never held
		{[]int{3, 3}, math.NaN()}, // untouched empty cell
	}
	for _, tc := range cases {
		got := c.Get(tc.addr)
		if math.IsNaN(tc.want) != math.IsNaN(got) || (!math.IsNaN(tc.want) && got != tc.want) {
			t.Errorf("Get(%v) = %v, want %v", tc.addr, got, tc.want)
		}
	}
	if !c.EngineCapable() {
		t.Fatal("uniform chunk-backed chain should be engine capable")
	}
	if c.NumLayers() != 2 {
		t.Fatalf("NumLayers = %d, want 2", c.NumLayers())
	}
	if c.CellsOverridden() != 4 {
		t.Fatalf("CellsOverridden = %d, want 4", c.CellsOverridden())
	}
}

func TestScenarioChainNonNullNewestWins(t *testing.T) {
	c := chainFixture(t)
	got := map[[2]int]float64{}
	c.NonNull(func(addr []int, v float64) bool {
		k := [2]int{addr[0], addr[1]}
		if _, dup := got[k]; dup {
			t.Fatalf("address %v emitted twice", addr)
		}
		got[k] = v
		return true
	})
	want := map[[2]int]float64{
		{0, 0}: 10, {0, 1}: 20, {2, 2}: 99,
	}
	if len(got) != len(want) {
		t.Fatalf("NonNull emitted %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("cell %v = %v, want %v", k, got[k], v)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

// TestScenarioChainWiderLayer covers the hypothetical-member shape: a
// layer on a wider geometry than the base. Cells above the base extent
// resolve from the layer; the chain is not engine capable.
func TestScenarioChainWiderLayer(t *testing.T) {
	g := MustGeometry([]int{2, 2}, []int{2, 2})
	st := NewStore(g)
	st.Set([]int{1, 1}, 7)
	wide := MustGeometry([]int{3, 2}, []int{2, 2})
	l := NewLayer(wide)
	l.Set([]int{2, 0}, 42) // ordinal above the base extent
	c := NewChain(st, []*Layer{l})
	if c.EngineCapable() {
		t.Fatal("wider layer must disable the engine fast path")
	}
	if got := c.Get([]int{2, 0}); got != 42 {
		t.Fatalf("Get above base extent = %v, want 42", got)
	}
	if got := c.Get([]int{1, 1}); got != 7 {
		t.Fatalf("base cell through wider chain = %v, want 7", got)
	}
	if got := c.Get([]int{2, 1}); !math.IsNaN(got) {
		t.Fatalf("untouched wide cell = %v, want NaN", got)
	}
}

func TestScenarioChainResolveChunk(t *testing.T) {
	c := chainFixture(t)
	g := c.ChunkBase().Geometry()
	resolved := map[[2]int]float64{}
	ccoord := make([]int, 2)
	addr := make([]int, 2)
	scratch := NewDense(g.ChunkCap())
	// Union of base and layer chunks, resolved chunk by chunk, must
	// reproduce exactly what NonNull reports.
	ids := map[int]bool{}
	for _, id := range c.ChunkBase().ChunkIDs() {
		ids[id] = true
	}
	for _, id := range c.LayerChunkIDs() {
		ids[id] = true
	}
	for id := range ids {
		base := c.ChunkBase().ReadChunk(id)
		g.CoordOf(id, ccoord)
		ch := c.Resolve(id, base, scratch)
		if ch == nil {
			continue
		}
		n := 0
		ch.ForEach(func(off int, v float64) bool {
			g.Join(ccoord, off, addr)
			resolved[[2]int{addr[0], addr[1]}] = v
			n++
			return true
		})
		if n != ch.Len() {
			t.Fatalf("chunk %d: resolved Len = %d, holds %d cells", id, ch.Len(), n)
		}
	}
	want := map[[2]int]float64{}
	c.NonNull(func(a []int, v float64) bool {
		want[[2]int{a[0], a[1]}] = v
		return true
	})
	if len(resolved) != len(want) {
		t.Fatalf("chunk-wise resolution yielded %v, want %v", resolved, want)
	}
	for k, v := range want {
		if resolved[k] != v {
			t.Errorf("cell %v = %v, want %v", k, resolved[k], v)
		}
	}
}

func TestScenarioChainReadOnly(t *testing.T) {
	c := chainFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Set on a chain should panic")
		}
	}()
	c.Set([]int{0, 0}, 1)
}

func TestScenarioChainClone(t *testing.T) {
	c := chainFixture(t)
	cl := c.Clone()
	if cl.Len() != c.Len() {
		t.Fatalf("clone Len = %d, want %d", cl.Len(), c.Len())
	}
	c.NonNull(func(addr []int, v float64) bool {
		if got := cl.Get(addr); got != v {
			t.Errorf("clone cell %v = %v, want %v", addr, got, v)
		}
		return true
	})
}

// TestScenarioChainGetAllocs pins the acceptance criterion: layer-chain
// read resolution adds zero steady-state allocations per resolved cell,
// matching the overlay kernel standard.
func TestScenarioChainGetAllocs(t *testing.T) {
	c := chainFixture(t)
	addrs := [][]int{{0, 0}, {0, 1}, {1, 0}, {2, 2}, {3, 3}}
	var sink float64
	allocs := testing.AllocsPerRun(1000, func() {
		for _, a := range addrs {
			sink += c.Get(a)
		}
	})
	if allocs != 0 {
		t.Fatalf("Chain.Get allocates %.1f per run, want 0", allocs)
	}
	_ = sink
}

// TestScenarioChainMergedAllocs pins the engine-facing chunk resolution
// at zero allocations per chunk once the scratch chunk exists.
func TestScenarioChainMergedAllocs(t *testing.T) {
	c := chainFixture(t)
	base := c.ChunkBase().ReadChunk(0)
	scratch := NewDense(c.ChunkBase().Geometry().ChunkCap())
	cells := 0
	allocs := testing.AllocsPerRun(1000, func() {
		cells += c.Resolve(0, base, scratch).Len()
	})
	if allocs != 0 {
		t.Fatalf("Resolve allocates %.1f per run, want 0", allocs)
	}
	if cells == 0 {
		t.Fatal("chunk 0 resolved empty; test is vacuous")
	}
}

func TestScenarioChainMemStoreBase(t *testing.T) {
	ms := cube.NewMemStore(2)
	ms.Set([]int{0, 0}, 5)
	g := MustGeometry([]int{2, 2}, []int{2, 2})
	l := NewLayer(g)
	l.Set([]int{1, 1}, 6)
	c := NewChain(ms, []*Layer{l})
	if c.EngineCapable() {
		t.Fatal("MemStore base must not be engine capable")
	}
	if got := c.Get([]int{0, 0}); got != 5 {
		t.Fatalf("base cell = %v, want 5", got)
	}
	if got := c.Get([]int{1, 1}); got != 6 {
		t.Fatalf("layer cell = %v, want 6", got)
	}
}

// TestScenarioChainOverRunEncodedBase layers scenario edits over a
// run-encoded base: reads resolve newest-wins through the encoded
// chunks, Resolve matches a plain-store twin cell for cell, and
// the base chunks stay run-encoded throughout — layer edits must never
// force a base decode (copy-on-write applies to writes, and scenario
// writes land in layers, not the base).
func TestScenarioChainOverRunEncodedBase(t *testing.T) {
	g := MustGeometry([]int{4, 4}, []int{2, 2})
	build := func() *Store {
		st := NewStore(g)
		for i := 0; i < 4; i++ { // one value run per row pair
			st.Set([]int{0, i}, 7)
			st.Set([]int{1, i}, 7)
			st.Set([]int{2, i}, 8)
		}
		return st
	}
	plain := build()
	rle := build()
	if n := rle.ForceRunEncodeAll(); n == 0 {
		t.Fatal("nothing run-encoded")
	}

	layer := NewLayer(g)
	layer.Set([]int{0, 1}, 70) // override inside a run
	layer.Delete([]int{2, 2})  // tombstone inside a run
	layer.Set([]int{3, 3}, 99) // layer-only cell in an empty base chunk
	plainChain := NewChain(plain, []*Layer{layer})
	rleChain := NewChain(rle, []*Layer{layer})

	addr := []int{0, 0}
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			addr[0], addr[1] = x, y
			pw, gw := plainChain.Get(addr), rleChain.Get(addr)
			if math.IsNaN(pw) != math.IsNaN(gw) || (!math.IsNaN(pw) && pw != gw) {
				t.Fatalf("Get(%v): run-encoded chain %v, plain %v", addr, gw, pw)
			}
		}
	}

	for _, id := range []int{0, 1, 2, 3} {
		pb := plainChain.ChunkBase().ReadChunk(id)
		rb := rleChain.ChunkBase().ReadChunk(id)
		want := map[int]float64{}
		if ch := plainChain.Resolve(id, pb, NewDense(g.ChunkCap())); ch != nil {
			ch.ForEach(func(off int, v float64) bool {
				want[off] = v
				return true
			})
		}
		got := map[int]float64{}
		if ch := rleChain.Resolve(id, rb, NewDense(g.ChunkCap())); ch != nil {
			ch.ForEach(func(off int, v float64) bool {
				got[off] = v
				return true
			})
		}
		if len(want) != len(got) {
			t.Fatalf("chunk %d: merged %d cells, want %d", id, len(got), len(want))
		}
		for off, w := range want {
			if got[off] != w {
				t.Fatalf("chunk %d off %d: merged %v, want %v", id, off, got[off], w)
			}
		}
	}

	for _, id := range rle.ChunkIDs() {
		if c := rle.ReadChunk(id); c != nil && c.Rep() != RunEncoded {
			t.Fatalf("base chunk %d decoded to %v by chain reads", id, c.Rep())
		}
	}
}

// flattenPerCell is the flat copy Flatten replaced on the commit path,
// kept as its oracle: every resolved cell through the chain's per-cell
// NonNull into a fresh store.
func flattenPerCell(c *Chain, g *Geometry) *Store {
	out := NewStore(g)
	c.NonNull(func(addr []int, v float64) bool {
		out.Set(addr, v)
		return true
	})
	return out
}

// TestScenarioChainFlattenMatchesPerCell: the chunk-at-a-time flat copy
// equals the per-cell one over chains of depth 0–3 on dense, sparse,
// run-encoded and mixed bases, with tombstones, layer-only chunks, a
// chunk tombstoned empty and newer layers overwriting older ones; it
// owns its chunks (an edit to the copy leaves the base alone); and a
// chain that is not engine capable falls back to the per-cell copy.
func TestScenarioChainFlattenMatchesPerCell(t *testing.T) {
	g := MustGeometry([]int{8, 6}, []int{4, 3})
	rng := rand.New(rand.NewSource(7))
	for _, rep := range []string{"dense", "sparse", "runs", "mixed"} {
		for depth := 0; depth <= 3; depth++ {
			st := NewStore(g)
			for x := 0; x < 8; x++ {
				for y := 0; y < 6; y++ {
					if x >= 4 && y >= 3 {
						continue // chunk 3 stays unmaterialized in the base
					}
					if rng.Intn(4) > 0 {
						st.Set([]int{x, y}, float64(1+x/2))
					}
				}
			}
			switch rep {
			case "sparse":
				st.ForceSparseAll()
			case "runs":
				st.ForceRunEncodeAll()
			case "mixed":
				st.PeekChunk(0).ForceSparse()
				st.PeekChunk(1).ForceRuns()
			}
			var layers []*Layer
			for d := 0; d < depth; d++ {
				l := NewLayer(g)
				for k := 0; k < 6; k++ {
					addr := []int{rng.Intn(8), rng.Intn(6)}
					if rng.Intn(3) == 0 {
						l.Delete(addr)
					} else {
						l.Set(addr, float64(100*(d+1)+k))
					}
				}
				if d == depth-1 {
					l.Set([]int{7, 5}, 999)  // layer-only chunk
					for x := 0; x < 4; x++ { // chunk 2 tombstoned empty
						for y := 3; y < 6; y++ {
							l.Delete([]int{x, y})
						}
					}
				}
				l.Seal()
				layers = append(layers, l)
			}
			c := NewChain(st, layers)
			want, got := flattenPerCell(c, g), c.Flatten(g)
			if got.Len() != want.Len() {
				t.Fatalf("%s depth %d: Flatten holds %d cells, per-cell copy %d", rep, depth, got.Len(), want.Len())
			}
			want.NonNull(func(addr []int, v float64) bool {
				if gv := got.Get(addr); gv != v {
					t.Errorf("%s depth %d: cell %v = %v, want %v", rep, depth, addr, gv, v)
				}
				return true
			})
			if gi, wi := got.ChunkIDs(), want.ChunkIDs(); !slices.Equal(gi, wi) {
				t.Errorf("%s depth %d: Flatten chunks %v, per-cell copy %v", rep, depth, gi, wi)
			}
			before := st.Get([]int{0, 0})
			got.Set([]int{0, 0}, -5)
			if after := st.Get([]int{0, 0}); after != before && !(math.IsNaN(after) && math.IsNaN(before)) {
				t.Fatalf("%s depth %d: editing the flat copy changed the base (%v → %v)", rep, depth, before, after)
			}
		}
	}

	base := NewStore(MustGeometry([]int{2, 2}, []int{2, 2}))
	base.Set([]int{1, 1}, 7)
	wide := MustGeometry([]int{3, 2}, []int{2, 2})
	l := NewLayer(wide)
	l.Set([]int{2, 0}, 42)
	flat := NewChain(base, []*Layer{l}).Flatten(wide)
	if flat.Len() != 2 || flat.Get([]int{2, 0}) != 42 || flat.Get([]int{1, 1}) != 7 {
		t.Fatalf("wider chain flattened to %d cells, (2,0)=%v (1,1)=%v", flat.Len(), flat.Get([]int{2, 0}), flat.Get([]int{1, 1}))
	}
}
