package core

import (
	"testing"

	"whatifolap/internal/algebra"
	"whatifolap/internal/paperdata"
)

// TestViewBaseReadAllocatesNothing pins the read every WITH CHANGES
// projection makes for a cell outside the scenario's scope: the split
// keeps every base ordinal, so the view reads the base at the cell's own
// address, without copying it. The new instance takes the ordinal past
// the base's extent and reads from the overlay.
func TestViewBaseReadAllocatesNothing(t *testing.T) {
	e := newEngine(t)
	v, err := e.ExecChanges(ChangesQuery{Changes: []algebra.Change{
		{Member: "Lisa", OldParent: "FTE", NewParent: "PTE", T: paperdata.Apr},
	}})
	if err != nil {
		t.Fatal(err)
	}
	vs := v.Result().Store().(*viewStore)
	base, view := e.binding.Varying, v.Result().Dim(e.vi)
	for o, id := range base.Leaves() {
		if view.Member(id).LeafOrdinal != o {
			t.Fatalf("the split moved base leaf %q from ordinal %d to %d", base.Path(id), o, view.Member(id).LeafOrdinal)
		}
	}
	if o := view.Member(view.MustLookup("PTE/Lisa")).LeafOrdinal; o != vs.extent || !vs.scoped[o] {
		t.Fatalf("PTE/Lisa has ordinal %d (scoped %v), want %d, the base's extent", o, vs.scoped[o], vs.extent)
	}
	// An unscoped row holding a value, and the new instance's row.
	var addr, moved []int
	e.base.Store().NonNull(func(a []int, _ float64) bool {
		if !vs.scoped[a[e.vi]] {
			addr = append([]int(nil), a...)
			return false
		}
		return true
	})
	v.Result().Store().NonNull(func(a []int, _ float64) bool {
		if a[e.vi] >= vs.extent {
			moved = append([]int(nil), a...)
			return false
		}
		return true
	})
	if addr == nil || moved == nil {
		t.Fatalf("no unscoped base row (%v) or no row of the new instance (%v)", addr, moved)
	}
	if got := vs.Get(addr); got != e.base.Store().Get(addr) {
		t.Fatalf("unscoped read = %v, base holds %v", got, e.base.Store().Get(addr))
	}
	if got := vs.Get(moved); got != vs.overlay.Get(moved) {
		t.Fatalf("new instance's read = %v, overlay holds %v", got, vs.overlay.Get(moved))
	}
	if allocs := testing.AllocsPerRun(100, func() { vs.Get(addr) }); allocs != 0 {
		t.Fatalf("an unscoped read allocates %.0f times, want 0", allocs)
	}
}
