package core

import (
	"fmt"
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
// warehouse: for every semantics × mode, serial and parallel, a
// run-encoded store produces the exact cell set (and relocation count)
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
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%v/%v/workers=%d", sem, mode, workers)
				got, err := rle.ExecPerspectiveWith(ExecContext{Workers: workers}, q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !sameCells(dumpCells(want), dumpCells(got)) {
					t.Fatalf("%s: run-encoded cells differ from per-cell path", label)
				}
				if got.Stats.CellsRelocated != want.Stats.CellsRelocated {
					t.Fatalf("%s: %d cells relocated, per-cell path %d",
						label, got.Stats.CellsRelocated, want.Stats.CellsRelocated)
				}
			}
		}
	}
}

// TestRunKernelMatchesPerCellWorkforce is the same equivalence on a
// generated workforce cube (64-employee chunks, multi-instance members,
// degenerate length-1 runs from the monthly drift), all semantics × both
// modes, serial and parallel.
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
			for _, workers := range []int{1, 4} {
				got, err := rle.ExecPerspectiveWith(ExecContext{Workers: workers}, q)
				if err != nil {
					t.Fatalf("%v/%v/workers=%d: %v", sem, mode, workers, err)
				}
				if !sameCells(dumpCells(want), dumpCells(got)) {
					t.Fatalf("%v/%v/workers=%d: run-encoded cells differ", sem, mode, workers)
				}
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
	for _, workers := range []int{1, 4} {
		got, err := rle.ExecChangesWith(ExecContext{Workers: workers}, q)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sameCells(dumpCells(want), dumpCells(got)) {
			t.Fatalf("workers=%d: run-encoded changes view differs", workers)
		}
	}
}

// TestSplitSubtasksLegal checks the sub-task cutting invariants on a
// real plan: parts concatenate back to each group's schedule in order,
// no merge edge has its endpoints in different parts, every group
// produces at least one part, and the total respects the budget rule
// (≥ groups, and > groups only by intra-group splitting).
func TestSplitSubtasksLegal(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(w.Cube, workload.DimDepartment)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.PlanPerspective(PerspectiveQuery{
		Members: w.Changing, Perspectives: []int{0, 3, 6, 9},
		Sem: perspective.Forward, Mode: perspective.NonVisual,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{1, 2, 4, 8, 64} {
		tasks := splitSubtasks(plan, target)
		if len(tasks) < len(plan.Groups) {
			t.Fatalf("target %d: %d tasks for %d groups", target, len(tasks), len(plan.Groups))
		}
		perGroup := make(map[int][]int)
		for _, task := range tasks {
			if len(task.chunks) == 0 {
				t.Fatalf("target %d: empty sub-task for group %d", target, task.group)
			}
			perGroup[task.group] = append(perGroup[task.group], task.chunks...)
		}
		for gi, mg := range plan.Groups {
			got := perGroup[gi]
			if len(got) != len(mg.Chunks) {
				t.Fatalf("target %d group %d: parts cover %d chunks, schedule has %d",
					target, gi, len(got), len(mg.Chunks))
			}
			for i, id := range mg.Chunks {
				if got[i] != id {
					t.Fatalf("target %d group %d: parts reorder the schedule at slot %d", target, gi, i)
				}
			}
		}
		// No merge edge may span two parts.
		owner := make(map[int]int)
		for ti, task := range tasks {
			for _, id := range task.chunks {
				owner[id] = ti
			}
		}
		for id, nbs := range plan.Neighbors {
			for _, nb := range nbs {
				if owner[id] != owner[nb] {
					t.Fatalf("target %d: merge edge (%d,%d) split across sub-tasks", target, id, nb)
				}
			}
		}
	}
}

// TestScanSubtasksStat checks that parallel executions surface the
// sub-task count (≥ merge groups) and serial ones report none.
func TestScanSubtasksStat(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(w.Cube, workload.DimDepartment)
	if err != nil {
		t.Fatal(err)
	}
	q := PerspectiveQuery{
		Members: w.Changing, Perspectives: []int{0, 3, 6, 9},
		Sem: perspective.Forward, Mode: perspective.NonVisual,
	}
	serial, err := e.ExecPerspective(q)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Stats.ScanSubtasks != 0 {
		t.Fatalf("serial ScanSubtasks = %d, want 0", serial.Stats.ScanSubtasks)
	}
	par, err := e.ExecPerspectiveWith(ExecContext{Workers: 4}, q)
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.ScanSubtasks < par.Stats.MergeGroups {
		t.Fatalf("ScanSubtasks = %d < MergeGroups = %d", par.Stats.ScanSubtasks, par.Stats.MergeGroups)
	}
	if par.Stats.ScanWorkers > par.Stats.ScanSubtasks {
		t.Fatalf("ScanWorkers = %d exceeds ScanSubtasks = %d", par.Stats.ScanWorkers, par.Stats.ScanSubtasks)
	}
}
