package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"whatifolap/internal/chunk"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/segment"
	"whatifolap/internal/trace"
	"whatifolap/internal/workload"
)

var allSemantics = []perspective.Semantics{
	perspective.Static, perspective.Forward, perspective.ExtendedForward,
	perspective.Backward, perspective.ExtendedBackward,
}

// dumpCells materializes a view's result store for comparison. Leaf
// relocation copies values verbatim, so two runs that must agree do so
// exactly, not just within a tolerance.
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

// TestPlanGroupsPartitionSchedule checks the planner's merge-group
// invariants: the groups partition the global read schedule (preserving
// relative order, so each group's sequence is a legal pebbling), group
// edge counts account for every merge edge, and no group's peak exceeds
// the global peak.
func TestPlanGroupsPartitionSchedule(t *testing.T) {
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

// TestScanCancellation cancels the context either before the scan starts
// or from inside the chunk store's read hook while the scan is in
// flight: the scan checks the context before every read, so it abandons
// with context.Canceled and reads no chunk after the one that cancelled
// (none at all when the context arrives cancelled).
func TestScanCancellation(t *testing.T) {
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
	st := w.Cube.Store().(*chunk.Store)
	for _, c := range []struct {
		name     string
		cancelAt int // read that cancels; 0 cancels before the scan
	}{
		{"mid_scan", 3},
		{"before_scan", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancelAt == 0 {
				cancel()
			}
			reads := 0 // the hook runs under the store's hook mutex
			st.SetReadHook(func(id int) {
				if reads++; reads == c.cancelAt {
					cancel()
				}
			})
			defer st.SetReadHook(nil)

			_, err := e.ExecPerspectiveWith(ExecContext{Ctx: ctx}, q)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if reads != c.cancelAt {
				t.Fatalf("%d chunk reads after cancelling at %d", reads, c.cancelAt)
			}
		})
	}
}

// TestEmptyAndUncuttablePlansScanSerially pins the scan's two edge
// cases: a plan with nothing to read (no instance of Joe is valid in
// May, so every relocation row prunes) and a plan of one merge group
// both run as one scan span with no merge time.
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
		{"one group", column, PerspectiveQuery{Members: []string{"Joe"}, Perspectives: []int{paperdata.Feb, paperdata.Apr}, Sem: perspective.Forward}, true},
	} {
		plan, err := c.e.PlanPerspective(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Groups) > 1 || (len(plan.Groups) == 1) != c.chunks {
			t.Fatalf("%s: fixture plans %d merge groups", c.name, len(plan.Groups))
		}
		tr := trace.New(0)
		root := tr.Start(trace.SpanRef{}, "eval")
		ctx := trace.WithSpan(trace.NewContext(context.Background(), tr), root)
		v, err := c.e.ExecPerspectiveWith(ExecContext{Ctx: ctx}, c.q)
		root.End()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := v.Stats
		if s.MergeMs != 0 {
			t.Fatalf("%s: MergeMs %v, want 0", c.name, s.MergeMs)
		}
		if (s.ChunksRead > 0) != c.chunks || (overlayOf(t, v).Len() > 0) != c.chunks {
			t.Fatalf("%s: %d chunks read, %d overlay cells", c.name, s.ChunksRead, overlayOf(t, v).Len())
		}
		scans := 0
		for _, sp := range tr.Spans() {
			if sp.Name == "scan" {
				scans++
			}
		}
		if scans != 1 {
			t.Fatalf("%s: %d scan spans, want 1", c.name, scans)
		}
	}
}

// TestScanReleasesEveryPoolPin is the runtime twin of the releasepair lint:
// over a buffer pool small enough to evict, a query whose plan has merge
// edges pins chunks while their partners are unscanned, and every pin is
// gone when the scan returns — completed or cancelled from the read hook
// with pins outstanding.
func TestScanReleasesEveryPoolPin(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	st := w.Cube.Store().(*chunk.Store)
	if err := segment.PageOut(st, t.TempDir()+"/cube.seg", st.MemBytes()/8); err != nil {
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
		_, err := e.ExecPerspectiveWith(ExecContext{Ctx: ctx}, q)
		st.SetReadHook(nil)
		cancel()
		if cancelled != errors.Is(err, context.Canceled) || (!cancelled && err != nil) {
			t.Fatalf("cancelled=%v: err = %v", cancelled, err)
		}
		if held == 0 {
			t.Fatalf("cancelled=%v: the scan never held a pin; test is vacuous", cancelled)
		}
		if !cancelled && st.SpillStats().Evictions == evictions {
			t.Fatalf("cancelled=%v: budget too large, nothing evicted; test is vacuous", cancelled)
		}
		if n := st.SpillStats().Pinned; n != 0 {
			t.Fatalf("cancelled=%v: %d chunks still pinned after the scan (%d held at peak)", cancelled, n, held)
		}
	}
}
