package simdisk

import (
	"testing"

	"whatifolap/internal/chunk"
)

func TestReadCostShape(t *testing.T) {
	m := Model{Base: 1, PerChunk: 0.1, SeekCap: 5, Transfer: 0.5}
	// Zero distance: base + transfer only.
	if got := m.ReadCost(10, 10); got != 1.5 {
		t.Fatalf("cost(0) = %v, want 1.5", got)
	}
	// Linear region.
	if got := m.ReadCost(0, 10); got != 1+1.0+0.5 {
		t.Fatalf("cost(10) = %v, want 2.5", got)
	}
	// Saturated region: distance 100 would cost 10 but caps at 5.
	if got := m.ReadCost(0, 100); got != 1+5+0.5 {
		t.Fatalf("cost(100) = %v, want 6.5", got)
	}
	// Symmetric in direction.
	if m.ReadCost(100, 0) != m.ReadCost(0, 100) {
		t.Fatal("seek cost should be symmetric")
	}
}

func TestCostMonotoneThenFlat(t *testing.T) {
	m := DefaultModel()
	prev := -1.0
	var flatAt float64
	for dist := 1; dist <= 1<<20; dist *= 2 {
		c := m.ReadCost(0, dist)
		if c < prev {
			t.Fatalf("cost decreased at distance %d", dist)
		}
		prev = c
		flatAt = c
	}
	// Far beyond the cap, doubling distance changes nothing.
	if m.ReadCost(0, 1<<21) != flatAt {
		t.Fatal("cost should be flat beyond the seek cap")
	}
}

// TestDiskAccumulation: the head starts at 0 and follows the read
// order — 0→3 costs 1+3, 3→1 costs 1+2, 1→1 costs 1 and travels nowhere.
func TestDiskAccumulation(t *testing.T) {
	m := Model{Base: 1, PerChunk: 1, SeekCap: 100, Transfer: 0}
	ms, seek := m.Cost([]int{3, 1, 1})
	if ms != 8 || seek != 5 {
		t.Fatalf("Cost = %v ms, %d chunks; want 8 ms, 5 chunks", ms, seek)
	}
	if ms, seek := m.Cost(nil); ms != 0 || seek != 0 {
		t.Fatalf("Cost(nil) = %v ms, %d chunks; want 0, 0", ms, seek)
	}
}

// TestHookIntegrationWithChunkStore: the store's read hook records the
// chunk ids in read order, and Model.Cost prices that order afterwards.
func TestHookIntegrationWithChunkStore(t *testing.T) {
	g := chunk.MustGeometry([]int{100}, []int{10})
	st := chunk.NewStore(g)
	for i := 0; i < 100; i += 10 {
		st.Set([]int{i}, 1)
	}
	var order []int
	st.SetReadHook(func(id int) { order = append(order, id) })
	st.ReadChunk(0)
	st.ReadChunk(9) // long seek
	st.ReadChunk(9) // no seek
	st.SetReadHook(nil)
	if len(order) != 3 {
		t.Fatalf("recorded %d reads, want 3", len(order))
	}
	ms, seek := Model{Base: 1, PerChunk: 1, SeekCap: 1000, Transfer: 0}.Cost(order)
	if seek != 9 {
		t.Fatalf("SeekChunks = %d, want 9", seek)
	}
	if ms != 3+9 {
		t.Fatalf("CostMs = %v, want 12", ms)
	}
}

func TestValidate(t *testing.T) {
	if err := (Model{Base: -1}).Validate(); err == nil {
		t.Fatal("negative cost should fail validation")
	}
	if err := DefaultModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
}
