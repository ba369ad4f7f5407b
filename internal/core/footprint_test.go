package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"whatifolap/internal/bitset"
	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/perspective"
	"whatifolap/internal/trace"
	"whatifolap/internal/workload"
)

// flatCube is a schema of flat dimensions with the given leaf counts —
// what the planner asks an engine's base cube for under a footprint.
func flatCube(extents []int) *cube.Cube {
	dims := make([]*dimension.Dimension, len(extents))
	for i, n := range extents {
		dims[i] = dimension.New(fmt.Sprintf("D%d", i), false)
		for o := 0; o < n; o++ {
			dims[i].MustAdd("", fmt.Sprintf("m%d", o))
		}
	}
	return cube.New(dims...)
}

// randomFootprint draws a footprint over a result cube with the given
// leaf counts: each dimension open, or a random subset of its leaves —
// now and then the empty one.
func randomFootprint(rng *rand.Rand, leaves []int) Footprint {
	fp := make(Footprint, len(leaves))
	for d, n := range leaves {
		if rng.Intn(3) == 0 {
			continue
		}
		fp[d] = bitset.New(n)
		keep := []float64{0, 0.3, 0.6, 0.9}[rng.Intn(4)]
		if rng.Intn(8) > 0 && keep == 0 {
			keep = 0.5
		}
		for o := 0; o < n; o++ {
			if rng.Float64() < keep {
				fp[d].Add(o)
			}
		}
	}
	return fp
}

// plannerTable returns the relocation table a planner leaves under
// footprint fp: hand's, with the destinations and parameter leaves off
// fp sent to -1.
func plannerTable(e *Engine, hand *RelocTable, fp Footprint) *RelocTable {
	g := e.store.Geometry()
	table := newRelocTable(g, e.vi, g.Extents[e.pi], 0)
	hand.each(func(src int, row []int) {
		table.add(src)
		for leaf, dst := range row {
			if dst >= 0 && fp.has(e.vi, dst) && fp.has(e.pi, leaf) {
				table.Row(src)[leaf] = dst
			}
		}
	})
	return table
}

// onFootprint keeps the cells of an overlay whose every coordinate is on
// fp, as address → value bit pattern.
func onFootprint(ov *chunk.Overlay, fp Footprint) map[string]uint64 {
	cells := make(map[string]uint64)
	ov.NonNull(func(addr []int, v float64) bool {
		for d := range addr {
			if !fp.has(d, addr[d]) {
				return true
			}
		}
		cells[fmt.Sprint(addr)] = math.Float64bits(v)
		return true
	})
	return cells
}

// TestFootprintQuickRandomGeometry is the footprint's oracle test below
// the query layer, on the overlay sink. Over the slab kernel's random
// geometries, representations and relocation tables, under random
// footprints, the planner's two uses of a footprint — -1 table entries
// and the relevant-chunk filter — leave in the overlay exactly what a
// per-cell scan of the scheduled chunks relocates through the planner's
// table: the overlay filters nothing else, and counts nothing off the
// grid. Every cell a per-cell scan of the whole store relocates onto the
// footprint is among them, and a footprint open in every dimension
// plans what no footprint does.
func TestFootprintQuickRandomGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	offFootprint, filtered, emptied := 0, 0, 0
	for i := 0; i < 1000; i++ {
		e, hand, og := randomKernelCase(rng)
		g := e.store.Geometry()
		e.base = flatCube(g.Extents)
		label := fmt.Sprintf("case %d: extents %v chunks %v vi=%d pi=%d overlay %v", i, g.Extents, g.ChunkDims, e.vi, e.pi, og.Extents)
		fp := randomFootprint(rng, og.Extents)
		if i%10 == 0 {
			fp = make(Footprint, g.NumDims()) // open everywhere
		}
		label += fmt.Sprint(" footprint ", fp)
		table := plannerTable(e, hand.Target, fp)

		p, err := e.buildPlan(nil, table, make([]bool, og.Extents[e.vi]), fp)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got := chunk.NewOverlay(og)
		tr := trace.New(0) // the kernel counts cells off the grid for a recording span only
		tally, err := e.scanInto(nil, p, got, nil, nil, tr, tr.Start(trace.SpanRef{}, "scan"))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := chunk.NewOverlay(og)
		_, scheduled := perCellScan(e, p.Schedule, table, want)
		wb, gb := dumpBits(want), dumpBits(got)
		if len(gb) != len(wb) || tally.cellsRelocated != scheduled || tally.cellsOffGrid != 0 {
			t.Fatalf("%s: overlay holds %d cells, %d counted relocated, %d off the grid; the scheduled chunks relocate %d",
				label, len(gb), tally.cellsRelocated, tally.cellsOffGrid, scheduled)
		}
		for k, w := range wb {
			if v, ok := gb[k]; !ok || v != w {
				t.Fatalf("%s: cell %s = %#x (present %v), oracle %#x", label, k, v, ok, w)
			}
		}
		all := chunk.NewOverlay(og)
		perCellScan(e, e.store.ChunkIDs(), table, all)
		on := onFootprint(all, fp)
		for k, w := range on {
			if v, ok := gb[k]; !ok || v != w {
				t.Fatalf("%s: footprint cell %s = %#x (present %v), whole-store oracle %#x", label, k, v, ok, w)
			}
		}

		if i%10 == 0 {
			plain, err := e.buildPlan(nil, table, make([]bool, og.Extents[e.vi]), nil)
			if err != nil {
				t.Fatal(err)
			}
			p.Stats.PlanMs, plain.Stats.PlanMs = 0, 0
			if fmt.Sprint(p.Schedule, p.Stats) != fmt.Sprint(plain.Schedule, plain.Stats) {
				t.Fatalf("%s: an open footprint plans %v %+v, no footprint %v %+v",
					label, p.Schedule, p.Stats, plain.Schedule, plain.Stats)
			}
		}
		if len(onFootprint(got, fp)) < len(gb) {
			offFootprint++ // the overlay took cells the footprint cuts
		}
		if p.chunksPruned > 0 {
			filtered++
		}
		if len(p.Schedule) == 0 && all.Len() > 0 {
			emptied++ // the table moves cells, none of them onto the grid
		}
	}
	if offFootprint < 100 || filtered < 150 || emptied < 30 {
		t.Fatalf("coverage: %d overlays holding cells off the footprint, %d plans with chunks filtered, %d emptied, of 1000",
			offFootprint, filtered, emptied)
	}
}

// randomGrid draws a grid over the flat cube schema: each dimension on
// the rows, on the columns, under the slicer or on no axis, and each
// tuple's member there the root now and then, else a random leaf.
func randomGrid(rng *rand.Rand, schema *cube.Cube) Grid {
	role := make([]int, schema.NumDims()) // 0 rows, 1 columns, 2 slicer, 3 no axis
	for d := range role {
		role[d] = rng.Intn(4)
	}
	tuple := func(r int) Tuple {
		var tp Tuple
		for d, rd := range role {
			if rd != r {
				continue
			}
			dim := schema.Dim(d)
			m := dim.Root()
			if rng.Intn(4) > 0 {
				m = dim.Leaf(rng.Intn(dim.NumLeaves())).ID
			}
			tp = append(tp, Coord{Dim: d, Member: m})
		}
		return tp
	}
	g := Grid{Slicer: tuple(2)}
	for i := 1 + rng.Intn(4); i > 0; i-- {
		g.Rows = append(g.Rows, tuple(0))
	}
	for j := 1 + rng.Intn(4); j > 0; j-- {
		g.Cols = append(g.Cols, tuple(1))
	}
	return g
}

// TestFootprintFusedQuickRandomGeometry is the fold sink's oracle test.
// Over the slab kernel's random geometries, representations and
// relocation tables, a random VISUAL grid is compiled, planned under the
// footprint it derives and scanned into its accumulators: the fold's
// live runs and dead slabs are the scan's only cell filter. Each grid
// cell equals View.Cell over a view holding every cell the table
// relocates; the scan counts relocated exactly the relocated cells on
// the footprint, and off the grid the rest of those the scheduled
// chunks relocate; its slab counters are those of one decision per slab
// (perSlabCounts), whatever blocks the kernel jumps.
func TestFootprintFusedQuickRandomGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	fastCut, slowCut, edgeOne, partial, folded := 0, 0, 0, 0, 0
	for i := 0; i < 1500; i++ {
		e, hand, og := randomKernelCase(rng)
		g := e.store.Geometry()
		e.base = flatCube(g.Extents)
		schema := flatCube(og.Extents)
		grid := randomGrid(rng, schema)
		proj := compileProjection(e.base, schema, perspective.Visual, grid)
		fp := proj.footprint(schema)
		label := fmt.Sprintf("case %d: extents %v chunks %v vi=%d pi=%d overlay %v grid %v footprint %v",
			i, g.Extents, g.ChunkDims, e.vi, e.pi, og.Extents, grid, fp)
		if proj.stats.Fallback != 0 {
			t.Fatalf("%s: %+v, want every cell compiled", label, proj.stats)
		}
		scoped := make([]bool, og.Extents[e.vi])
		for o := range scoped {
			scoped[o] = true
		}
		table := plannerTable(e, hand.Target, fp)
		p, err := e.buildPlan(nil, table, scoped, fp)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}

		// The oracle view: every row scoped, its overlay every cell the
		// unrestricted table relocates.
		all := chunk.NewOverlay(og)
		perCellScan(e, e.store.ChunkIDs(), hand.Target, all)
		vs := &viewStore{base: e.store, overlay: all, vi: e.vi, scoped: scoped, extent: g.Extents[e.vi]}
		v := &View{input: e.base, result: cube.NewWithStore(vs, schema.Dims()...), mode: perspective.Visual, engine: e}

		tr := trace.New(0)
		tally, err := e.scanInto(nil, p, nil, newFuser(v, proj, og), nil, tr, tr.Start(trace.SpanRef{}, "scan"))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		out := make([][]float64, len(grid.Rows))
		for r := range out {
			out[r] = make([]float64, len(grid.Cols))
		}
		if err := proj.emit(ExecContext{}, v, grid, out); err != nil {
			t.Fatal(err)
		}
		ids := make([]dimension.MemberID, schema.NumDims())
		for r := range out {
			for c, got := range out[r] {
				grid.cellIDs(ids, r, c)
				want, err := v.Cell(ids)
				if err != nil {
					t.Fatal(err)
				}
				if cube.IsNull(got) != cube.IsNull(want) || !cube.IsNull(got) && math.Abs(got-want) > 1e-9*max(1, math.Abs(want)) {
					t.Fatalf("%s: cell (%d, %d) %v = %v, View.Cell %v", label, r, c, ids, got, want)
				}
			}
		}
		if slabs, skipped := perSlabCounts(t, e, p); tally.slabs != slabs || tally.slabsSkipped != skipped {
			t.Fatalf("%s: the fused scan counted %d slabs, %d skipped; one decision per slab counts %d, %d",
				label, tally.slabs, tally.slabsSkipped, slabs, skipped)
		}
		onGrid := len(onFootprint(all, fp))
		_, scheduled := perCellScan(e, p.Schedule, table, chunk.NewOverlay(og))
		if tally.cellsRelocated != onGrid || tally.cellsRelocated+tally.cellsOffGrid != scheduled {
			t.Fatalf("%s: %d cells relocated and %d off the grid; %d relocated cells on the footprint, %d from the scheduled chunks",
				label, tally.cellsRelocated, tally.cellsOffGrid, onGrid, scheduled)
		}

		slab := min(g.OffsetStride(e.vi), g.OffsetStride(e.pi))
		for d, set := range fp {
			if d == e.vi || d == e.pi || set == nil || set.Len() == og.Extents[d] {
				continue
			}
			if g.OffsetStride(d) < slab {
				fastCut++
			} else {
				slowCut++
			}
		}
		for d, n := range g.Extents {
			if g.ChunkDims[d] == 1 {
				edgeOne++
			}
			if n%g.ChunkDims[d] != 0 {
				partial++
			}
		}
		if tally.cellsRelocated > 0 {
			folded++
		}
	}
	if fastCut < 80 || slowCut < 200 || edgeOne < 500 || partial < 500 || folded < 500 {
		t.Fatalf("coverage: %d dimensions cut faster than the slab, %d slower, %d of edge 1, %d with a partial last chunk; %d of 1500 cases folded a cell",
			fastCut, slowCut, edgeOne, partial, folded)
	}
}

// execUnder runs q to a view as ExecPerspectiveWith does, but planned
// under footprint fp: the planner's own parameter, which the exported
// entry points set only from a grid they compile.
func execUnder(t *testing.T, e *Engine, q PerspectiveQuery, fp Footprint) *View {
	t.Helper()
	p, err := e.planPerspective(nil, q, fp)
	if err != nil {
		t.Fatal(err)
	}
	v := e.newView(nil, nil, q.Mode)
	if err := e.execute(ExecContext{}, p, v, nil); err != nil {
		t.Fatal(err)
	}
	return v
}

// workforceFootprint restricts a tiny workforce cube to one account and
// one scenario: inside a (quarter, every account, every scenario) chunk
// that is one cell of each twenty-cell slab.
func workforceFootprint(c *cube.Cube) Footprint {
	fp := make(Footprint, c.NumDims())
	for _, name := range []string{workload.DimAccount, workload.DimScenario} {
		d := c.DimIndex(name)
		fp[d] = bitset.FromSlice(c.Dim(d).NumLeaves(), []int{1})
	}
	return fp
}

// accountReport is a VISUAL report on one account and one scenario of
// a tiny workforce cube: a row per instance of the changing employees,
// sliced on the first account and the first scenario. Inside a
// (quarter, every account, every scenario) chunk its fold takes one cell
// of each twenty-cell slab.
func accountReport(w *workload.Workforce) Grid {
	c := w.Cube
	dept, di := c.DimByName(workload.DimDepartment), c.DimIndex(workload.DimDepartment)
	g := Grid{Cols: []Tuple{{}}}
	for _, name := range w.Changing {
		for _, inst := range dept.Instances(name) {
			g.Rows = append(g.Rows, Tuple{{Dim: di, Member: inst}})
		}
	}
	for _, name := range []string{workload.DimAccount, workload.DimScenario} {
		g.Slicer = append(g.Slicer, Coord{Dim: c.DimIndex(name), Member: c.DimByName(name).Leaf(0).ID})
	}
	return g
}

// TestFootprintScanAllocs pins the fused scan's live runs at the slab
// kernel's constant (TestSlabKernelScanAllocs): a warm fused scan of a
// report whose fold takes one cell of each slab allocates a constant,
// whatever the representation — nothing per slab, per live run or per
// cell — folds a twentieth of the cells a scan without a footprint
// relocates, and counts the rest off the grid.
func TestFootprintScanAllocs(t *testing.T) {
	for _, rep := range []string{"dense", "sparse", "runs"} {
		w, err := workload.NewWorkforce(workload.ConfigTiny())
		if err != nil {
			t.Fatal(err)
		}
		setRepresentation(w.Cube.Store().(*chunk.Store), rep)
		e, err := New(w.Cube, workload.DimDepartment)
		if err != nil {
			t.Fatal(err)
		}
		q := PerspectiveQuery{Members: w.Changing, Perspectives: []int{0, 3, 6, 9}, Sem: perspective.Forward, Mode: perspective.Visual}
		full, err := e.PlanPerspective(q)
		if err != nil {
			t.Fatal(err)
		}
		view := e.newView(nil, nil, q.Mode)
		gp := &gridProjection{grid: accountReport(w)}
		p, err := e.planPerspective(nil, q, gp.compile(view))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Schedule) != len(full.Schedule) {
			t.Fatalf("%s: %d chunks scheduled of %d: the footprint should cut slabs, not drop chunks", rep, len(p.Schedule), len(full.Schedule))
		}
		fold := newFuser(view, gp.proj, e.store.Geometry())
		scan := func(p *PhysicalPlan, ov *chunk.Overlay, fold *fuser) scanTally {
			tr := trace.New(0)
			tally, err := e.scanInto(nil, p, ov, fold, nil, tr, tr.Start(trace.SpanRef{}, "scan"))
			if err != nil {
				t.Fatal(err)
			}
			return tally
		}
		tally, whole := scan(p, nil, fold), scan(full, chunk.NewOverlay(e.store.Geometry()), nil)
		slab := w.Config.Accounts * w.Config.Scenarios
		if tally.cellsRelocated == 0 || tally.cellsRelocated*slab != whole.cellsRelocated ||
			tally.cellsRelocated+tally.cellsOffGrid != whole.cellsRelocated || whole.cellsOffGrid != 0 {
			t.Fatalf("%s: %d cells folded and %d off the grid under the footprint, %d and %d relocated without", rep,
				tally.cellsRelocated, tally.cellsOffGrid, whole.cellsRelocated, whole.cellsOffGrid)
		}
		if allocs := testing.AllocsPerRun(10, func() { scan(p, nil, fold) }); allocs > 8 {
			t.Fatalf("%s: a warm fused scan of %d cells in %d slabs allocates %.0f times, want a constant ≤ 8",
				rep, tally.cellsRelocated, tally.slabs, allocs)
		}
	}
}

// TestFootprintPlansOnlyTheGrid checks the plan-level effects on the
// validity-window layout, where every (account, scenario) pair is a
// merge group: a footprint of one pair keeps one group of eight, and the
// view planned under it answers every footprint cell as the
// unrestricted view does; an empty footprint plans and reads nothing.
func TestFootprintPlansOnlyTheGrid(t *testing.T) {
	cfg := workload.ConfigTiny()
	cfg.ChunkDims = []int{16, 12, 1, 1, 1, 1, 1}
	w, err := workload.NewWorkforce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(w.Cube, workload.DimDepartment)
	if err != nil {
		t.Fatal(err)
	}
	q := PerspectiveQuery{Members: w.Changing, Perspectives: []int{0, 6}, Sem: perspective.Forward}
	full, err := e.PlanPerspective(q)
	if err != nil {
		t.Fatal(err)
	}
	fp := workforceFootprint(w.Cube)
	one, err := e.planPerspective(nil, q, fp)
	if err != nil {
		t.Fatal(err)
	}
	groups := cfg.Accounts * cfg.Scenarios
	if len(full.Groups) != groups || len(one.Groups) != 1 ||
		len(one.Schedule)*groups != len(full.Schedule) || one.chunksPruned != len(full.Schedule)-len(one.Schedule) {
		t.Fatalf("one (account, scenario) of %d: %d groups and %d chunks of %d and %d, %d pruned",
			groups, len(one.Groups), len(one.Schedule), len(full.Groups), len(full.Schedule), one.chunksPruned)
	}
	if one.SourceChunks != full.SourceChunks || one.SourceChunks < len(full.Schedule) {
		t.Fatalf("source chunks: %d under the footprint, %d without, %d scheduled", one.SourceChunks, full.SourceChunks, len(full.Schedule))
	}

	acct, scen := w.Cube.DimIndex(workload.DimAccount), w.Cube.DimIndex(workload.DimScenario)
	footprintCells := func(v *View) map[string]float64 {
		cells := map[string]float64{}
		v.Result().Store().NonNull(func(addr []int, val float64) bool {
			if fp.has(acct, addr[acct]) && fp.has(scen, addr[scen]) {
				cells[fmt.Sprint(addr)] = val
			}
			return true
		})
		return cells
	}
	want, err := e.ExecPerspective(q)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := footprintCells(execUnder(t, e, q, fp)), footprintCells(want); len(w) == 0 || !sameCells(w, g) {
		t.Fatalf("footprint cells: %d under the footprint, %d without, or they differ", len(g), len(w))
	}

	fp[w.Cube.DimIndex(workload.DimPeriod)] = bitset.New(cfg.Months)
	if s := execUnder(t, e, q, fp).Stats; s.ChunksRead != 0 || s.CellsRelocated != 0 || s.SourceInstances != 0 {
		t.Fatalf("empty footprint: %+v, want nothing read", s)
	}
}
