package chunk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"whatifolap/internal/cube"
)

func TestSplitIDMatchesSplitPlusCanonicalID(t *testing.T) {
	g := MustGeometry([]int{7, 5, 9}, []int{2, 3, 4})
	ccoord := make([]int, 3)
	for a := 0; a < 7; a++ {
		for b := 0; b < 5; b++ {
			for c := 0; c < 9; c++ {
				addr := []int{a, b, c}
				off := g.Split(addr, ccoord)
				id := g.CanonicalID(ccoord)
				gotID, gotOff := g.SplitID(addr)
				if gotID != id || gotOff != off {
					t.Fatalf("SplitID(%v) = (%d,%d), want (%d,%d)", addr, gotID, gotOff, id, off)
				}
			}
		}
	}
}

// Property: an Overlay behaves exactly like the map-backed MemStore it
// replaced, under random workloads of sets, deletes and reads.
func TestQuickOverlayMatchesMemStore(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := MustGeometry([]int{20, 12}, []int{1 + r.Intn(5), 1 + r.Intn(6)})
		ov := NewOverlay(g)
		ms := cube.NewMemStore(2)
		for i := 0; i < 400; i++ {
			addr := []int{r.Intn(20), r.Intn(12)}
			if r.Intn(4) == 0 {
				ov.Set(addr, math.NaN())
				ms.Set(addr, math.NaN())
			} else {
				v := float64(1 + r.Intn(50))
				ov.Set(addr, v)
				ms.Set(addr, v)
			}
		}
		if ov.Len() != ms.Len() {
			return false
		}
		for a := 0; a < 20; a++ {
			for b := 0; b < 12; b++ {
				x, y := ov.Get([]int{a, b}), ms.Get([]int{a, b})
				if math.IsNaN(x) != math.IsNaN(y) || (!math.IsNaN(x) && x != y) {
					return false
				}
			}
		}
		// NonNull visits every cell exactly once, deterministically.
		seen := map[[2]int]float64{}
		ov.NonNull(func(addr []int, v float64) bool {
			seen[[2]int{addr[0], addr[1]}] = v
			return true
		})
		if len(seen) != ms.Len() {
			return false
		}
		ok := true
		ms.NonNull(func(addr []int, v float64) bool {
			if seen[[2]int{addr[0], addr[1]}] != v {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOverlayCloneIndependent(t *testing.T) {
	g := MustGeometry([]int{8}, []int{4})
	ov := NewOverlay(g)
	ov.Set([]int{1}, 10)
	cl := ov.Clone()
	ov.Set([]int{1}, 99)
	ov.Set([]int{2}, 5)
	if cl.Get([]int{1}) != 10 || !math.IsNaN(cl.Get([]int{2})) {
		t.Fatal("clone shares state with the original")
	}
	if cl.Len() != 1 || ov.Len() != 2 {
		t.Fatalf("Len: clone=%d original=%d", cl.Len(), ov.Len())
	}
}

// The relocation kernel's contract: once a cell's destination chunk is
// resident (dense), writing and reading relocated cells allocates
// nothing — the win over the string-keyed MemStore, whose every Set
// allocates an address key.
func TestOverlayZeroAllocsPerRelocatedCell(t *testing.T) {
	g := MustGeometry([]int{16, 16}, []int{4, 4})
	ov := NewOverlay(g)
	// Warm one chunk past the density threshold so it is dense.
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			ov.Set([]int{a, b}, 1)
		}
	}
	addr := []int{2, 3}
	if allocs := testing.AllocsPerRun(1000, func() { ov.Set(addr, 42.5) }); allocs != 0 {
		t.Fatalf("Overlay.Set on a resident dense chunk: %v allocs per cell, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { _ = ov.Get(addr) }); allocs != 0 {
		t.Fatalf("Overlay.Get: %v allocs per cell, want 0", allocs)
	}
	// Sparse in-place overwrite is also allocation-free.
	sv := NewOverlay(g)
	sv.Set([]int{9, 9}, 1)
	saddr := []int{9, 9}
	if allocs := testing.AllocsPerRun(1000, func() { sv.Set(saddr, 2) }); allocs != 0 {
		t.Fatalf("Overlay.Set overwriting a sparse cell: %v allocs, want 0", allocs)
	}
	// The baseline this replaced allocates on every single write.
	ms := cube.NewMemStore(2)
	if allocs := testing.AllocsPerRun(1000, func() { ms.Set(addr, 42.5) }); allocs == 0 {
		t.Fatal("MemStore.Set unexpectedly allocation-free; baseline comparison is vacuous")
	}
}

// The slab kernel's write paths: a run or a slab of cells written into
// a resident dense chunk allocates nothing.
func TestOverlaySlabWritesAllocateNothing(t *testing.T) {
	g := MustGeometry([]int{16, 16}, []int{4, 4})
	ov := NewOverlay(g)
	full := make([]float64, g.ChunkCap())
	for i := range full {
		full[i] = 1
	}
	ov.SetCellsAt(0, 0, full)
	if ov.Promotions() != 1 {
		t.Fatal("a fully written chunk was not promoted to dense")
	}
	cells := []float64{2, math.NaN(), 3, 4}
	if allocs := testing.AllocsPerRun(1000, func() { ov.SetCellsAt(0, 4, cells) }); allocs != 0 {
		t.Fatalf("Overlay.SetCellsAt on a resident dense chunk: %v allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { ov.SetRunAt(0, 8, 4, 5) }); allocs != 0 {
		t.Fatalf("Overlay.SetRunAt on a resident dense chunk: %v allocs, want 0", allocs)
	}
}
