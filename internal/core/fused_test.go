package core

import (
	"runtime"
	"testing"

	"whatifolap/internal/perspective"
	"whatifolap/internal/workload"
)

// departmentQuery is the cold-pool report over the tiny workforce's
// Dept01 — its quarters and months by every account, VISUAL — as the
// engine sees it: the perspective query and the grid.
func departmentQuery(t *testing.T) (*Engine, PerspectiveQuery, Grid) {
	t.Helper()
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	c := w.Cube
	e, err := New(c, workload.DimDepartment)
	if err != nil {
		t.Fatal(err)
	}
	dept, period, account := c.DimByName(workload.DimDepartment), c.DimByName(workload.DimPeriod), c.DimByName(workload.DimAccount)
	di, pi, ai := c.DimIndex(workload.DimDepartment), c.DimIndex(workload.DimPeriod), c.DimIndex(workload.DimAccount)
	d := dept.MustLookup("Dept01")
	q := PerspectiveQuery{Perspectives: []int{2, 8}, Sem: perspective.Forward, Mode: perspective.Visual}
	for _, ch := range dept.Member(d).Children {
		q.Members = append(q.Members, dept.Member(ch).Name)
	}
	var g Grid
	for _, qtr := range period.Member(period.Root()).Children {
		g.Rows = append(g.Rows, Tuple{{Dim: di, Member: d}, {Dim: pi, Member: qtr}})
		for _, m := range period.Member(qtr).Children {
			g.Rows = append(g.Rows, Tuple{{Dim: di, Member: d}, {Dim: pi, Member: m}})
		}
	}
	for _, a := range account.Leaves() {
		g.Cols = append(g.Cols, Tuple{{Dim: ai, Member: a}})
	}
	for _, name := range []string{workload.DimScenario, workload.DimCurrency, workload.DimVersion, workload.DimValueType} {
		g.Slicer = append(g.Slicer, Coord{Dim: c.DimIndex(name), Member: c.DimByName(name).Leaf(0).ID})
	}
	return e, q, g
}

// TestFusedAllocs: a fused department query allocates no overlay chunk.
// Projected as it runs (ExecPerspectiveProjected), the scan folds into
// the grid's accumulators: the view it projects from holds no overlay,
// and the query allocates less than the same query run to a view and
// projected over its overlay by at least half that overlay's bytes.
func TestFusedAllocs(t *testing.T) {
	e, q, g := departmentQuery(t)
	out := make([][]float64, len(g.Rows))
	for i := range out {
		out[i] = make([]float64, len(g.Cols))
	}
	unfused := func() (*View, ProjectStats) {
		v, err := e.ExecPerspective(q)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := v.Project(ExecContext{}, g, out)
		if err != nil {
			t.Fatal(err)
		}
		return v, ps
	}
	fused := func() (*View, ProjectStats) {
		gp := &gridProjection{grid: g, out: out}
		v, err := e.runPerspective(ExecContext{}, q, gp)
		if err != nil {
			t.Fatal(err)
		}
		return v, gp.stats
	}
	v, ps := unfused()
	overlay := v.result.Store().(*viewStore).overlay
	if ps.Fused || overlay.NumChunks() == 0 {
		t.Fatalf("a view projected: %+v, %d overlay chunks", ps, overlay.NumChunks())
	}
	if v, ps = fused(); !ps.Fused || v.result.Store().(*viewStore).overlay != nil {
		t.Fatalf("projected as it runs: %+v, overlay %v", ps, v.result.Store().(*viewStore).overlay != nil)
	}
	bytes := func(run func() (*View, ProjectStats)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const n = 20
		for i := 0; i < n; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	withFold, withOverlay := bytes(fused), bytes(unfused)
	if saved := uint64(overlay.MemBytes()); withFold+saved/2 > withOverlay {
		t.Fatalf("fused query allocates %d B, over an overlay %d B: the overlay's %d B were not saved", withFold, withOverlay, saved)
	}
}
