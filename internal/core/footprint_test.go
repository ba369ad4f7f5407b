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

// TestFootprintQuickRandomGeometry is the footprint's oracle test below
// the query layer. Over the slab kernel's random geometries,
// representations and relocation tables, under random footprints, the
// planner's three uses of a footprint — -1 table entries, the relevant-
// chunk filter, the groups' slab masks — leave in the overlay exactly
// the cells a per-cell scan of every chunk of the store relocates onto
// the footprint; the cells a surviving slab held back are counted off
// the grid; and a footprint open in every dimension plans and writes
// what no footprint does.
func TestFootprintQuickRandomGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	masked, outerMasked, filtered, emptied := 0, 0, 0, 0
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

		// The table as a planner leaves it: destinations and parameter
		// leaves off the footprint are -1.
		table := newRelocTable(g, e.vi, g.Extents[e.pi], 0)
		hand.Target.each(func(src int, row []int) {
			table.add(src)
			for leaf, dst := range row {
				if dst >= 0 && fp.has(e.vi, dst) && fp.has(e.pi, leaf) {
					table.Row(src)[leaf] = dst
				}
			}
		})

		// Oracle: every chunk of the store, cell by cell, then the
		// footprint of the remaining dimensions cell by cell.
		all := chunk.NewOverlay(og)
		perCellScan(e, e.store.ChunkIDs(), table, all)
		want := make(map[string]uint64)
		all.NonNull(func(addr []int, v float64) bool {
			for d := range addr {
				if !fp.has(d, addr[d]) {
					return true
				}
			}
			want[fmt.Sprint(addr)] = math.Float64bits(v)
			return true
		})

		p, err := e.buildPlan(nil, table, make([]bool, og.Extents[e.vi]), fp)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got := chunk.NewOverlay(og)
		tr := trace.New(0) // the kernel counts cells off the grid for a recording span only
		tally, err := e.scanInto(nil, p, got, nil, tr, tr.Start(trace.SpanRef{}, "scan"))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		gb := dumpBits(got)
		if len(gb) != len(want) || tally.cellsRelocated != len(want) {
			t.Fatalf("%s: overlay holds %d cells, %d counted relocated; the oracle has %d on the footprint", label, len(gb), tally.cellsRelocated, len(want))
		}
		for k, w := range want {
			if v, ok := gb[k]; !ok || v != w {
				t.Fatalf("%s: cell %s = %#x (present %v), oracle %#x", label, k, v, ok, w)
			}
		}
		// What the scheduled chunks relocate cell by cell is what the
		// kernel wrote plus what its masks held back.
		_, scheduled := perCellScan(e, p.Schedule, table, chunk.NewOverlay(og))
		if tally.cellsRelocated+tally.cellsOffGrid != scheduled {
			t.Fatalf("%s: %d cells written + %d off the grid, the scheduled chunks relocate %d", label, tally.cellsRelocated, tally.cellsOffGrid, scheduled)
		}

		if i%10 == 0 {
			plain, err := e.buildPlan(nil, table, make([]bool, og.Extents[e.vi]), nil)
			if err != nil {
				t.Fatal(err)
			}
			p.Stats.PlanMs, plain.Stats.PlanMs = 0, 0
			if fmt.Sprint(p.Schedule, p.Stats) != fmt.Sprint(plain.Schedule, plain.Stats) || p.masked || tally.cellsOffGrid != 0 {
				t.Fatalf("%s: an open footprint plans %v %+v (masked %v, %d cells off grid), no footprint %v %+v",
					label, p.Schedule, p.Stats, p.masked, tally.cellsOffGrid, plain.Schedule, plain.Stats)
			}
		}
		for _, mg := range p.Groups {
			if mg.mask != nil {
				masked++
				if mg.mask.outer != nil {
					outerMasked++
				}
				break
			}
		}
		if p.chunksPruned > 0 {
			filtered++
		}
		if len(p.Schedule) == 0 && all.Len() > 0 {
			emptied++ // the table moves cells, none of them onto the grid
		}
	}
	if masked < 100 || outerMasked < 50 || filtered < 150 || emptied < 30 {
		t.Fatalf("coverage: %d plans with a slab mask (%d with slower digits masked), %d with chunks filtered, %d emptied, of 1000",
			masked, outerMasked, filtered, emptied)
	}
}

// execUnder runs q to a view as ExecPerspectiveWith does, but planned
// under footprint fp: the planner's own parameter, which the exported
// entry points set only from a grid they compile.
func execUnder(t *testing.T, e *Engine, q PerspectiveQuery, fp Footprint) *View {
	t.Helper()
	p, _, err := e.planPerspective(nil, q, fp)
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

// TestFootprintScanAllocs pins the mask path at the slab kernel's
// constant (TestSlabKernelScanAllocs): a warm scan under a footprint
// that masks every slab allocates no more than one without, whatever
// the representation — nothing per slab, per run of the mask or per
// cell — and writes a twentieth of the cells.
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
		q := PerspectiveQuery{Members: w.Changing, Perspectives: []int{0, 3, 6, 9}, Sem: perspective.Forward}
		full, err := e.PlanPerspective(q)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := e.planPerspective(nil, q, workforceFootprint(w.Cube))
		if err != nil {
			t.Fatal(err)
		}
		if !p.masked || len(p.Schedule) != len(full.Schedule) {
			t.Fatalf("%s: masked %v, %d chunks scheduled of %d: the footprint should mask slabs, not drop chunks", rep, p.masked, len(p.Schedule), len(full.Schedule))
		}
		scan := func(p *PhysicalPlan, ov *chunk.Overlay) scanTally {
			tr := trace.New(0)
			tally, err := e.scanInto(nil, p, ov, nil, tr, tr.Start(trace.SpanRef{}, "scan"))
			if err != nil {
				t.Fatal(err)
			}
			return tally
		}
		warm := chunk.NewOverlay(e.store.Geometry())
		tally, whole := scan(p, warm), scan(full, chunk.NewOverlay(e.store.Geometry()))
		slab := w.Config.Accounts * w.Config.Scenarios
		if tally.cellsRelocated == 0 || tally.cellsRelocated*slab != whole.cellsRelocated ||
			tally.cellsRelocated+tally.cellsOffGrid != whole.cellsRelocated || whole.cellsOffGrid != 0 {
			t.Fatalf("%s: %d cells written and %d off the grid under the footprint, %d and %d without", rep,
				tally.cellsRelocated, tally.cellsOffGrid, whole.cellsRelocated, whole.cellsOffGrid)
		}
		if allocs := testing.AllocsPerRun(10, func() { scan(p, warm) }); allocs > 8 {
			t.Fatalf("%s: a warm masked scan of %d cells in %d slabs allocates %.0f times, want a constant ≤ 8",
				rep, tally.cellsRelocated, tally.slabs, allocs)
		}
	}
}

// TestFootprintPlansOnlyTheGrid checks the plan-level effects on the
// validity-window layout, where every (account, scenario) pair is a
// merge group: a footprint of one pair keeps one group of eight; an
// empty footprint plans and reads nothing.
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
	one, _, err := e.planPerspective(nil, q, fp)
	if err != nil {
		t.Fatal(err)
	}
	groups := cfg.Accounts * cfg.Scenarios
	if len(full.Groups) != groups || len(one.Groups) != 1 || one.masked ||
		len(one.Schedule)*groups != len(full.Schedule) || one.chunksPruned != len(full.Schedule)-len(one.Schedule) {
		t.Fatalf("one (account, scenario) of %d: %d groups and %d chunks of %d and %d, %d pruned, masked %v",
			groups, len(one.Groups), len(one.Schedule), len(full.Groups), len(full.Schedule), one.chunksPruned, one.masked)
	}
	if one.SourceChunks != full.SourceChunks || one.SourceChunks < len(full.Schedule) {
		t.Fatalf("source chunks: %d under the footprint, %d without, %d scheduled", one.SourceChunks, full.SourceChunks, len(full.Schedule))
	}

	fp[w.Cube.DimIndex(workload.DimPeriod)] = bitset.New(cfg.Months)
	if s := execUnder(t, e, q, fp).Stats; s.ChunksRead != 0 || s.CellsRelocated != 0 || s.SourceInstances != 0 {
		t.Fatalf("empty footprint: %+v, want nothing read", s)
	}
}

// TestFootprintEdgeOneMasksNil: on the validity-window layout every
// dimension but the varying and the parameter one has chunk edge 1, so
// a footprint restricting them either drops a merge group's chunks or
// holds its chunk row whole. Every group that survives carries a nil
// mask, decided once per dimension — building it allocates nothing —
// and the view answers every footprint cell as the unrestricted view
// does.
func TestFootprintEdgeOneMasksNil(t *testing.T) {
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
	fp := make(Footprint, w.Cube.NumDims())
	acct, scen := w.Cube.DimIndex(workload.DimAccount), w.Cube.DimIndex(workload.DimScenario)
	fp[acct] = bitset.FromSlice(cfg.Accounts, []int{0, 2})
	fp[scen] = bitset.FromSlice(cfg.Scenarios, []int{1})
	q := PerspectiveQuery{Members: w.Changing, Perspectives: []int{0, 6}, Sem: perspective.Forward}
	p, _, err := e.planPerspective(nil, q, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) != 2 || p.masked {
		t.Fatalf("%d groups, masked %v: want the two (account, scenario) pairs, unmasked", len(p.Groups), p.masked)
	}
	mb := newMaskBuilder(e.store.Geometry(), fp, e.vi, e.pi)
	for _, gr := range p.Groups {
		if gr.mask != nil || mb.forRest(gr.Rest) != nil {
			t.Fatalf("group %v carries a mask", gr.Rest)
		}
		if n := testing.AllocsPerRun(10, func() { mb.forRest(gr.Rest) }); n != 0 {
			t.Fatalf("group %v: deciding its mask allocates %.0f times, want 0", gr.Rest, n)
		}
	}
	onFootprint := func(v *View) map[string]float64 {
		cells := map[string]float64{}
		v.Result().Store().NonNull(func(addr []int, val float64) bool {
			if fp.has(acct, addr[acct]) && fp.has(scen, addr[scen]) {
				cells[fmt.Sprint(addr)] = val
			}
			return true
		})
		return cells
	}
	got := execUnder(t, e, q, fp)
	want, err := e.ExecPerspective(q)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := onFootprint(got), onFootprint(want); len(w) == 0 || !sameCells(w, g) {
		t.Fatalf("footprint cells: %d under the footprint, %d without, or they differ", len(g), len(w))
	}
}
