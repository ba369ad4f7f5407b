package core

import (
	"testing"

	"whatifolap/internal/algebra"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
)

// TestViewRemapReadAllocatesNothing pins the read every WITH CHANGES
// projection makes for a cell outside the scenario's scope: the view
// remaps the varying ordinal to the base cube's and reads through,
// without copying the address.
func TestViewRemapReadAllocatesNothing(t *testing.T) {
	e := newEngine(t)
	v, err := e.ExecChanges(ChangesQuery{Changes: []algebra.Change{
		{Member: "Lisa", OldParent: "FTE", NewParent: "PTE", T: paperdata.Apr},
	}})
	if err != nil {
		t.Fatal(err)
	}
	vs := v.Result().Store().(*viewStore)
	if vs.baseOrd == nil {
		t.Fatal("a positive scenario's view has no ordinal remap")
	}
	// An unscoped row whose ordinal the split shifted, holding a value.
	var addr []int
	e.base.Store().NonNull(func(a []int, _ float64) bool {
		for vo, bo := range vs.baseOrd {
			if bo == a[e.vi] && bo != vo && !vs.scoped[vo] {
				addr = append([]int(nil), a...)
				addr[e.vi] = vo
				return false
			}
		}
		return true
	})
	if addr == nil {
		t.Fatal("no unscoped row moved ordinal; the remap branch is not exercised")
	}
	want := append([]int(nil), addr...)
	want[e.vi] = vs.baseOrd[addr[e.vi]]
	if got := vs.Get(addr); got != e.base.Store().Get(want) {
		t.Fatalf("remapped read = %v, base holds %v", got, e.base.Store().Get(want))
	}
	if allocs := testing.AllocsPerRun(100, func() { vs.Get(addr) }); allocs != 0 {
		t.Fatalf("a remapped read allocates %.0f times, want 0", allocs)
	}
}

// TestCompressedScopedReadAllocatesNothing pins the compressed view's
// scoped read: it follows the inverse mapping by rewriting the varying
// ordinal in the caller's address, not by copying the address.
func TestCompressedScopedReadAllocatesNothing(t *testing.T) {
	e := newEngine(t)
	v, err := e.ExecPerspectiveCompressed(PerspectiveQuery{
		Members: []string{"Joe"}, Perspectives: []int{paperdata.Feb, paperdata.Apr},
		Sem: perspective.Forward, Mode: perspective.Visual,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := v.Result().Store().(*mappedStore)
	// A scoped cell whose value the mapping moved from another instance.
	var addr []int
	ms.NonNull(func(a []int, _ float64) bool {
		if o := a[e.vi]; ms.scoped[o] && ms.inverse.Row(o)[a[e.pi]] != o {
			addr = append([]int(nil), a...)
			return false
		}
		return true
	})
	if addr == nil {
		t.Fatal("no relocated scoped cell; the mapped branch is not exercised")
	}
	want := append([]int(nil), addr...)
	want[e.vi] = ms.inverse.Row(addr[e.vi])[addr[e.pi]]
	if got := ms.Get(addr); got != e.store.Get(want) {
		t.Fatalf("mapped read = %v, base holds %v", got, e.store.Get(want))
	}
	if allocs := testing.AllocsPerRun(100, func() { ms.Get(addr) }); allocs != 0 {
		t.Fatalf("a mapped read allocates %.0f times, want 0", allocs)
	}
}
