package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"

	"whatifolap/internal/chunk"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/trace"
	"whatifolap/internal/workload"
)

var allSemantics = []perspective.Semantics{
	perspective.Static, perspective.Forward, perspective.ExtendedForward,
	perspective.Backward, perspective.ExtendedBackward,
}

// dumpCells materializes a view's result store for comparison. Leaf
// relocation copies values verbatim, so serial and parallel runs must
// agree exactly, not just within a tolerance.
func dumpCells(v *View) map[string]float64 {
	cells := make(map[string]float64)
	v.Result().Store().NonNull(func(addr []int, val float64) bool {
		cells[fmt.Sprint(addr)] = val
		return true
	})
	return cells
}

func sameCells(want, got map[string]float64) bool {
	if len(want) != len(got) {
		return false
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || g != w {
			return false
		}
	}
	return true
}

// TestParallelScanMatchesSerialPaper checks the paper's Fig. 1/2
// warehouse: at every semantics × mode × worker count, the parallel
// merge-group scan produces the exact cell set of the serial scan and
// reads each relevant chunk exactly once.
func TestParallelScanMatchesSerialPaper(t *testing.T) {
	e := newEngine(t)
	for _, sem := range allSemantics {
		for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
			q := PerspectiveQuery{
				Members: []string{"Joe"}, Perspectives: []int{paperdata.Feb, paperdata.Apr},
				Sem: sem, Mode: mode,
			}
			serial, err := e.ExecPerspective(q)
			if err != nil {
				t.Fatalf("%v/%v serial: %v", sem, mode, err)
			}
			want := dumpCells(serial)
			for _, workers := range []int{2, 4, 8} {
				label := fmt.Sprintf("%v/%v/workers=%d", sem, mode, workers)
				par, err := e.ExecPerspectiveWith(ExecContext{Workers: workers}, q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := dumpCells(par); !sameCells(want, got) {
					t.Fatalf("%s: parallel cells differ from serial (%d vs %d cells)",
						label, len(got), len(want))
				}
				if par.Stats.ChunksRead != serial.Stats.ChunksRead {
					t.Fatalf("%s: %d chunk reads, serial %d",
						label, par.Stats.ChunksRead, serial.Stats.ChunksRead)
				}
				if par.Stats.CellsRelocated != serial.Stats.CellsRelocated {
					t.Fatalf("%s: %d cells relocated, serial %d",
						label, par.Stats.CellsRelocated, serial.Stats.CellsRelocated)
				}
			}
		}
	}
}

// TestParallelScanMatchesSerialWorkforce is the property form over a
// generated workforce cube: for random member subsets, perspective
// sets, semantics, modes and worker counts, parallel execution is
// indistinguishable from serial — same cells on success, same error
// otherwise.
func TestParallelScanMatchesSerialWorkforce(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(w.Cube, workload.DimDepartment)
	if err != nil {
		t.Fatal(err)
	}
	property := func(memberBits, perspBits uint16, semPick, modePick, workerPick uint8) bool {
		var members []string
		for i, name := range w.Changing {
			if memberBits&(1<<uint(i%16)) != 0 {
				members = append(members, name)
			}
		}
		if len(members) == 0 {
			members = w.Changing[:1]
		}
		var ps []int
		for m := 0; m < w.Config.Months; m++ {
			if perspBits&(1<<uint(m)) != 0 {
				ps = append(ps, m)
			}
		}
		if len(ps) == 0 {
			ps = []int{0}
		}
		q := PerspectiveQuery{
			Members:      members,
			Perspectives: ps,
			Sem:          allSemantics[int(semPick)%len(allSemantics)],
			Mode:         []perspective.Mode{perspective.NonVisual, perspective.Visual}[int(modePick)%2],
		}
		workers := []int{2, 4, 8}[int(workerPick)%3]

		serial, serr := e.ExecPerspective(q)
		par, perr := e.ExecPerspectiveWith(ExecContext{Workers: workers}, q)
		if serr != nil || perr != nil {
			return serr != nil && perr != nil && serr.Error() == perr.Error()
		}
		return sameCells(dumpCells(serial), dumpCells(par)) &&
			serial.Stats.CellsRelocated == par.Stats.CellsRelocated
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelPlanPartitionsSchedule checks the planner invariants the
// parallel scan relies on: the merge groups partition the global read
// schedule (preserving relative order, so each group's sequence is a
// legal pebbling), group edge counts account for every merge edge, and
// no group's peak exceeds the global peak.
func TestParallelPlanPartitionsSchedule(t *testing.T) {
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
	if len(plan.Groups) == 0 || plan.Stats.MergeGroups != len(plan.Groups) {
		t.Fatalf("MergeGroups = %d, len(Groups) = %d", plan.Stats.MergeGroups, len(plan.Groups))
	}
	pos := make(map[int]int, len(plan.Schedule))
	for i, id := range plan.Schedule {
		pos[id] = i
	}
	seen := make(map[int]bool)
	edges := 0
	total := 0
	for gi, g := range plan.Groups {
		edges += g.Edges
		total += len(g.Chunks)
		if g.Peak > plan.Stats.PeakResidentChunks {
			t.Fatalf("group %d peak %d exceeds global peak %d", gi, g.Peak, plan.Stats.PeakResidentChunks)
		}
		last := -1
		for _, id := range g.Chunks {
			p, ok := pos[id]
			if !ok {
				t.Fatalf("group %d chunk %d not in the global schedule", gi, id)
			}
			if p <= last {
				t.Fatalf("group %d breaks the schedule's relative order at chunk %d", gi, id)
			}
			last = p
			if seen[id] {
				t.Fatalf("chunk %d in more than one group", id)
			}
			seen[id] = true
		}
	}
	if total != len(plan.Schedule) {
		t.Fatalf("groups hold %d chunks, schedule %d: not a partition", total, len(plan.Schedule))
	}
	if edges != plan.Stats.MergeEdges {
		t.Fatalf("group edges sum to %d, plan has %d merge edges", edges, plan.Stats.MergeEdges)
	}
}

// TestParallelScanCancellation cancels the context from inside the
// chunk store's read hook while a parallel scan is in flight: the scan
// must abandon promptly with context.Canceled, reading at most one
// in-flight chunk per worker after the cancellation point.
func TestParallelScanCancellation(t *testing.T) {
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
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const cancelAt = 3
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var reads atomic.Int64
			st := w.Cube.Store().(*chunk.Store)
			st.SetReadHook(func(id int) {
				if reads.Add(1) == cancelAt {
					cancel()
				}
			})
			defer st.SetReadHook(nil)

			_, err := e.ExecPerspectiveWith(ExecContext{Ctx: ctx, Workers: workers}, q)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Each worker checks the context before every read, so at
			// most the reads racing with the cancel slip through.
			if n := reads.Load(); n > cancelAt+int64(2*workers) {
				t.Fatalf("%d chunk reads after cancelling at %d", n, cancelAt)
			}
		})
	}
}

// TestEmptyAndUncuttablePlansScanSerially pins the task list's two edge
// cases at every worker count. A plan with nothing to read (no instance
// of Joe is valid in May, so every relocation row prunes) and a plan
// whose split yields a single task both run, and report, as the serial
// scan: one worker, no sub-tasks, no merge, no group span.
func TestEmptyAndUncuttablePlansScanSerially(t *testing.T) {
	// One chunk column along the varying dimension: a single merge group.
	wh := paperdata.Warehouse()
	column, err := New(paperdata.ChunkedWarehouse([]int{3, wh.Dim(1).NumLeaves(), wh.Dim(2).NumLeaves(), wh.Dim(3).NumLeaves()}), "Organization")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		e      *Engine
		q      PerspectiveQuery
		chunks bool
	}{
		{"empty", newEngine(t), PerspectiveQuery{Members: []string{"Joe"}, Perspectives: []int{paperdata.May}, Sem: perspective.Static}, false},
		{"one task", column, PerspectiveQuery{Members: []string{"Joe"}, Perspectives: []int{paperdata.Feb, paperdata.Apr}, Sem: perspective.Forward}, true},
	} {
		e := c.e
		plan, err := e.PlanPerspective(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(splitSubtasks(plan, 4)); got > 1 || (got == 1) != c.chunks {
			t.Fatalf("%s: fixture splits into %d tasks at 4 workers", c.name, got)
		}
		for _, workers := range []int{0, 1, 4} {
			tr := trace.New(0)
			root := tr.Start(trace.SpanRef{}, "eval")
			ctx := trace.WithSpan(trace.NewContext(context.Background(), tr), root)
			v, err := e.ExecPerspectiveWith(ExecContext{Ctx: ctx, Workers: workers}, c.q)
			root.End()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			s := v.Stats
			if s.ScanWorkers != 1 || s.ScanSubtasks != 0 || s.MergeMs != 0 {
				t.Fatalf("%s workers=%d: ScanWorkers %d, ScanSubtasks %d, MergeMs %v; want 1, 0, 0",
					c.name, workers, s.ScanWorkers, s.ScanSubtasks, s.MergeMs)
			}
			if (s.ChunksRead > 0) != c.chunks || (overlayOf(t, v).Len() > 0) != c.chunks {
				t.Fatalf("%s workers=%d: %d chunks read, %d overlay cells", c.name, workers, s.ChunksRead, overlayOf(t, v).Len())
			}
			for _, sp := range tr.Spans() {
				if sp.Name == "group" || sp.Name == "merge" {
					t.Fatalf("%s workers=%d: a one-task scan recorded a %q span", c.name, workers, sp.Name)
				}
			}
		}
	}
}

// TestScanReleasesEveryPoolPin is the runtime twin of the releasepair lint:
// over a buffer pool small enough to evict, a query whose plan has merge
// edges pins chunks while their partners are unscanned, and every pin is
// gone when the scan returns — completed or cancelled from the read hook
// with pins outstanding — at one worker and at four.
func TestScanReleasesEveryPoolPin(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	st := w.Cube.Store().(*chunk.Store)
	if err := st.SpillTo(t.TempDir()+"/cube.spill", st.MemBytes()/8); err != nil {
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
	if plan, err := e.PlanPerspective(q); err != nil || plan.Stats.MergeEdges == 0 {
		t.Fatalf("fixture plan has no merge edges (err %v): nothing would be pinned", err)
	}
	for _, workers := range []int{1, 4} {
		for _, cancelled := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			evictions := st.SpillStats().Evictions
			held := 0 // the hook runs under the store's hook mutex
			st.SetReadHook(func(int) {
				if n := st.SpillStats().Pinned; n > held {
					held = n
					if cancelled {
						cancel()
					}
				}
			})
			_, err := e.ExecPerspectiveWith(ExecContext{Ctx: ctx, Workers: workers}, q)
			st.SetReadHook(nil)
			cancel()
			label := fmt.Sprintf("workers=%d cancelled=%v", workers, cancelled)
			if cancelled != errors.Is(err, context.Canceled) || (!cancelled && err != nil) {
				t.Fatalf("%s: err = %v", label, err)
			}
			if held == 0 {
				t.Fatalf("%s: the scan never held a pin; test is vacuous", label)
			}
			if !cancelled && st.SpillStats().Evictions == evictions {
				t.Fatalf("%s: budget too large, nothing evicted; test is vacuous", label)
			}
			if n := st.SpillStats().Pinned; n != 0 {
				t.Fatalf("%s: %d chunks still pinned after the scan (%d held at peak)", label, n, held)
			}
		}
	}
}
