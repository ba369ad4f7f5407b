package core

import (
	"testing"

	"whatifolap/internal/algebra"
	"whatifolap/internal/chunk"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/workload"
)

// runEncodedEngine builds a second engine over the same logical data
// with every base chunk force run-encoded, so the scan moves value runs
// instead of slabs of cells.
func runEncodedEngine(t testing.TB) *Engine {
	t.Helper()
	c := paperdata.ChunkedWarehouse(nil)
	if n := c.Store().(*chunk.Store).ForceRunEncodeAll(); n == 0 {
		t.Fatal("nothing run-encoded")
	}
	e, err := New(c, "Organization")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRunKernelMatchesPerCellPaper checks the kernel's run feeder
// against its cell feeders through whole queries on the paper's
// warehouse: for every semantics × mode, a run-encoded store produces the exact cell set (and relocation count)
// of the plain store. (The per-cell oracle itself is in
// slab_kernel_test.go.)
func TestRunKernelMatchesPerCellPaper(t *testing.T) {
	plain := newEngine(t)
	rle := runEncodedEngine(t)
	for _, sem := range allSemantics {
		for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
			q := PerspectiveQuery{
				Members: []string{"Joe", "Lisa"}, Perspectives: []int{paperdata.Feb, paperdata.Apr},
				Sem: sem, Mode: mode,
			}
			want, err := plain.ExecPerspective(q)
			if err != nil {
				t.Fatalf("%v/%v plain: %v", sem, mode, err)
			}
			got, err := rle.ExecPerspective(q)
			if err != nil {
				t.Fatalf("%v/%v: %v", sem, mode, err)
			}
			if !sameCells(dumpCells(want), dumpCells(got)) {
				t.Fatalf("%v/%v: run-encoded cells differ from per-cell path", sem, mode)
			}
			if got.Stats.CellsRelocated != want.Stats.CellsRelocated {
				t.Fatalf("%v/%v: %d cells relocated, per-cell path %d",
					sem, mode, got.Stats.CellsRelocated, want.Stats.CellsRelocated)
			}
		}
	}
}

// TestRunKernelMatchesPerCellWorkforce is the same equivalence on a
// generated workforce cube (64-employee chunks, multi-instance members,
// degenerate length-1 runs from the monthly drift), all semantics × both
// modes.
func TestRunKernelMatchesPerCellWorkforce(t *testing.T) {
	wPlain, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	wRle, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	if n := wRle.Cube.Store().(*chunk.Store).ForceRunEncodeAll(); n == 0 {
		t.Fatal("nothing run-encoded")
	}
	plain, err := New(wPlain.Cube, workload.DimDepartment)
	if err != nil {
		t.Fatal(err)
	}
	rle, err := New(wRle.Cube, workload.DimDepartment)
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range allSemantics {
		for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
			q := PerspectiveQuery{
				Members: wPlain.Changing, Perspectives: []int{0, 3, 6, 9},
				Sem: sem, Mode: mode,
			}
			want, err := plain.ExecPerspective(q)
			if err != nil {
				t.Fatalf("%v/%v plain: %v", sem, mode, err)
			}
			got, err := rle.ExecPerspective(q)
			if err != nil {
				t.Fatalf("%v/%v: %v", sem, mode, err)
			}
			if !sameCells(dumpCells(want), dumpCells(got)) {
				t.Fatalf("%v/%v: run-encoded cells differ", sem, mode)
			}
		}
	}
}

// TestRunKernelChangesExtendedGeometry pins the kernel's destination-ID
// arithmetic in the positive-scenario case: new member instances extend
// the varying dimension, so the overlay geometry's chunk count — and
// with it every canonical-ID stride — differs from the source store's.
// The run-encoded store must produce the plain store's exact view.
func TestRunKernelChangesExtendedGeometry(t *testing.T) {
	plain := newEngine(t)
	rle := runEncodedEngine(t)
	q := ChangesQuery{
		Changes: []algebra.Change{
			{Member: "Lisa", OldParent: "FTE", NewParent: "PTE", T: paperdata.Apr},
			{Member: "Tom", OldParent: "PTE", NewParent: "Contractor", T: paperdata.Mar},
		},
		Mode: perspective.Visual,
	}
	want, err := plain.ExecChanges(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rle.ExecChanges(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCells(dumpCells(want), dumpCells(got)) {
		t.Fatal("run-encoded changes view differs")
	}
}
