package mdx

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"whatifolap/internal/chunk"
	"whatifolap/internal/core"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/result"
	"whatifolap/internal/scenario"
	"whatifolap/internal/trace"
	"whatifolap/internal/workload"
)

// footprintSeed seeds TestFootprintEquivalence; a failure prints the
// seed of the case that failed, and -footprint.seed=N -footprint.cases=1
// replays it alone.
var (
	footprintSeed  = flag.Int64("footprint.seed", 20, "first case seed of TestFootprintEquivalence")
	footprintCases = flag.Int("footprint.cases", 0, "number of cases of TestFootprintEquivalence (0: the whole matrix)")
)

// chunkedCopy rebuilds c over a chunk store with the given chunk edges,
// keeping its dimensions, bindings and rules.
func chunkedCopy(c *cube.Cube, chunkDims []int) *cube.Cube {
	extents := make([]int, c.NumDims())
	for i := range extents {
		extents[i] = c.Dim(i).NumLeaves()
	}
	st := chunk.NewStore(chunk.MustGeometry(extents, chunkDims))
	c.Store().NonNull(func(addr []int, v float64) bool {
		st.Set(addr, v)
		return true
	})
	out := cube.NewWithStore(st, c.Dims()...)
	for _, b := range c.Bindings() {
		if err := out.AddBinding(b); err != nil {
			panic(err)
		}
	}
	out.SetRules(c.Rules())
	return out
}

// forceRepresentation rewrites every chunk of a chunk-backed cube as
// dense, sparse or run-encoded, whatever its occupancy.
func forceRepresentation(c *cube.Cube, rep string) {
	st := c.Store().(*chunk.Store)
	for _, id := range st.ChunkIDs() {
		src := st.PeekChunk(id)
		ch := chunk.NewDense(src.Cap())
		src.ForEach(func(off int, v float64) bool { ch.Set(off, v); return true })
		switch rep {
		case "sparse":
			ch.ForceSparse()
		case "runs":
			ch.ForceRuns()
		}
		st.PutChunk(id, ch)
	}
}

// footprintCube is one cube of the property test's corpus.
type footprintCube struct {
	name    string
	varying string
	build   func(t *testing.T) *cube.Cube
}

var footprintCubes = []footprintCube{
	{"paper", "Organization", func(*testing.T) *cube.Cube { return paperdata.ChunkedWarehouse(nil) }},
	// Formula rules on Measures (Margin, Margin%), one of them scoped to
	// a market: the footprint must leave Measures open.
	{"retail", "Product", func(t *testing.T) *cube.Cube {
		rt, err := workload.NewRetailByTime(workload.ConfigRetail())
		if err != nil {
			t.Fatal(err)
		}
		return chunkedCopy(rt.Cube, []int{4, 5, 2, 3})
	}},
	// The benchmark's two layouts: quarter-deep chunks holding every
	// account and scenario (slabs of accounts × scenarios to mask), and
	// year-deep single-account chunks (one merge group per account and
	// scenario to drop whole).
	{"workforce-wf", workload.DimDepartment, func(t *testing.T) *cube.Cube {
		w, err := workload.NewWorkforce(workload.ConfigTiny())
		if err != nil {
			t.Fatal(err)
		}
		return w.Cube
	}},
	{"workforce-vw", workload.DimDepartment, func(t *testing.T) *cube.Cube {
		cfg := workload.ConfigTiny()
		cfg.FlatMonths = true
		cfg.ChunkDims = []int{16, 12, 1, 1, 1, 1, 1}
		w, err := workload.NewWorkforce(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w.Cube
	}},
}

// queryGen draws random extended-MDX queries over one cube.
type queryGen struct {
	rng     *rand.Rand
	c       *cube.Cube
	varying int
	param   *dimension.Dimension
}

func (g *queryGen) ref(di int, id dimension.MemberID) string {
	d := g.c.Dim(di)
	s := "[" + d.Name() + "]"
	if p := d.Path(id); p != "" {
		s += ".[" + strings.ReplaceAll(p, "/", "].[") + "]"
	}
	return s
}

// member draws a member of dimension di: any member, the root included,
// or — leaf set — a leaf.
func (g *queryGen) member(di int, leaf bool) dimension.MemberID {
	d := g.c.Dim(di)
	if leaf {
		return d.Leaf(g.rng.Intn(d.NumLeaves())).ID
	}
	return dimension.MemberID(g.rng.Intn(d.NumMembers()))
}

func (g *queryGen) nonLeaf(di int) dimension.MemberID {
	d := g.c.Dim(di)
	for {
		if id := g.member(di, false); d.Member(id).LeafOrdinal < 0 {
			return id
		}
	}
}

// set draws a one-dimension set expression over dimension di.
func (g *queryGen) set(di int) string {
	d := g.c.Dim(di)
	switch g.rng.Intn(5) {
	case 0:
		return g.ref(di, g.nonLeaf(di)) + ".Children"
	case 1:
		return fmt.Sprintf("[%s].Levels(%d).Members", d.Name(), g.rng.Intn(d.Height(d.Root())+1))
	case 2:
		flag := []string{"SELF", "AFTER", "SELF_AND_AFTER"}[g.rng.Intn(3)]
		return fmt.Sprintf("Descendants(%s, %d, %s)", g.ref(di, g.nonLeaf(di)), g.rng.Intn(3), flag)
	case 3:
		return "Descendants(" + g.ref(di, g.nonLeaf(di)) + ")"
	}
	var refs []string
	for i := 1 + g.rng.Intn(3); i > 0; i-- {
		refs = append(refs, g.ref(di, g.member(di, g.rng.Intn(2) == 0)))
	}
	return strings.Join(refs, ", ")
}

// axis draws an axis set over the dimensions dims (one or two): a plain
// set, a cross join, tuples naming both dimensions, or a set whose
// tuples name different dimensions.
func (g *queryGen) axis(dims []int) string {
	if len(dims) == 1 {
		return "{" + g.set(dims[0]) + "}"
	}
	a, b := dims[0], dims[1]
	switch g.rng.Intn(3) {
	case 0:
		return "{CrossJoin({" + g.set(a) + "}, {" + g.set(b) + "})}"
	case 1:
		var tuples []string
		for i := 1 + g.rng.Intn(3); i > 0; i-- {
			tuples = append(tuples, "("+g.ref(a, g.member(a, g.rng.Intn(2) == 0))+", "+g.ref(b, g.member(b, g.rng.Intn(2) == 0))+")")
		}
		return "{" + strings.Join(tuples, ", ") + "}"
	}
	return "{" + g.set(a) + ", " + g.set(b) + "}"
}

// selectText draws the SELECT: up to two dimensions per axis, sometimes
// no ROWS axis, and a slicer over the dimensions left — half the time a
// leaf of each, as reports are written (a NONVISUAL grid reads the
// result only where every coordinate is a leaf), else any member of some
// of them, so that a dimension is on no axis and in no slicer.
func (g *queryGen) selectText() string {
	dims := g.rng.Perm(g.c.NumDims())
	take := func(n int) []int {
		n = min(n, len(dims))
		out := dims[:n]
		dims = dims[n:]
		return out
	}
	s := "SELECT " + g.axis(take(1+g.rng.Intn(2))) + " ON COLUMNS"
	if g.rng.Intn(5) > 0 {
		s += ", " + g.axis(take(1+g.rng.Intn(2))) + " ON ROWS"
	}
	s += " FROM C"
	var slicer []string
	pinned := g.rng.Intn(2) == 0
	for _, di := range dims {
		if pinned || g.rng.Intn(3) > 0 {
			slicer = append(slicer, g.ref(di, g.member(di, pinned || g.rng.Intn(4) > 0)))
		}
	}
	if len(slicer) > 0 {
		s += " WHERE (" + strings.Join(slicer, ", ") + ")"
	}
	return s
}

func (g *queryGen) perspective(sem perspective.Semantics, mode perspective.Mode) string {
	var points []string
	for _, o := range g.rng.Perm(g.param.NumLeaves())[:1+g.rng.Intn(3)] {
		points = append(points, "("+g.param.Leaf(o).Name+")")
	}
	return fmt.Sprintf("WITH PERSPECTIVE {%s} FOR %s %v %v ", strings.Join(points, ", "), g.c.Dim(g.varying).Name(), sem, mode)
}

// changes draws a one-row change relation: a leaf instance moves to a
// sibling of its parent from some moment on. It also returns the
// reference the instance has after the move.
func (g *queryGen) changes(mode perspective.Mode) (with, moved string) {
	d := g.c.Dim(g.varying)
	inst := d.Member(g.member(g.varying, true))
	siblings := d.Member(d.Member(inst.Parent).Parent).Children
	to := inst.Parent
	for to == inst.Parent {
		to = siblings[g.rng.Intn(len(siblings))]
	}
	at := g.param.Leaf(1 + g.rng.Intn(g.param.NumLeaves()-1)).Name
	with = fmt.Sprintf("WITH CHANGES {(%s, %s, %s, [%s])} %v ",
		g.ref(g.varying, inst.ID), g.ref(g.varying, inst.Parent), g.ref(g.varying, to), at, mode)
	return with, g.ref(g.varying, to) + ".[" + inst.Name + "]"
}

// recordingStore wraps a result cube's store and records the first read
// of an address outside the footprint.
type recordingStore struct {
	cube.Store
	fp    core.Footprint
	reads int
	stray []int
}

func (s *recordingStore) Get(addr []int) float64 {
	s.reads++
	for d, set := range s.fp {
		if set != nil && !set.Contains(addr[d]) && s.stray == nil {
			s.stray = append([]int(nil), addr...)
		}
	}
	return s.Store.Get(addr)
}

// projected is one engine query projected three ways: fused (the
// serving path — the engine relocates the footprint it derives from the
// grid and folds it into the grid during its scan), over an overlay
// (View.Project of the same query run to a view, which relocates every
// scoped cell) and cell by cell (algebra.CellValue over that view).
// stats are the served run's, full the view's plus its projection's
// chunk reads.
type projected struct {
	compiled, overlay, perCell *result.Grid
	ps                         core.ProjectStats
	stats, full                core.Stats
}

// servedPlan returns the plan a lowered query is served under — with the
// footprint the engine derives from its grid — and how the grid
// projects, as EXPLAIN prints them.
func servedPlan(t *testing.T, lo lowered) (*core.PhysicalPlan, core.ProjectStats) {
	t.Helper()
	var plan *core.PhysicalPlan
	var ps core.ProjectStats
	var err error
	if lo.path == pathEngineChanges {
		plan, ps, err = lo.engine.PlanChangesProjected(lo.changes, lo.grid.core())
	} else {
		plan, ps, err = lo.engine.PlanPerspectiveProjected(lo.persp, lo.grid.core())
	}
	if err != nil {
		t.Fatal(err)
	}
	return plan, ps
}

// runProjected runs a lowered query as it is served, then runs it to a
// view and projects that view compiled and cell by cell. The served
// answer must agree with the overlay's bit for bit where both fold in
// one order, else to rounding: a fused scan folds in the plan's read
// order, the pass over an overlay in chunk order, and a run's equal
// cells as one product. The per-cell projection reads
// through a store that records any read off the footprint the served
// plan relocates.
func runProjected(t *testing.T, label string, ev *Evaluator, q *Query, lo lowered) projected {
	t.Helper()
	var rc RunContext
	compiled := ev.newGrid(lo.schema, lo.grid, q)
	stats, ps, err := ev.execute(rc, lo, compiled.Values)
	if err != nil {
		t.Fatalf("%s: execute: %v", label, err)
	}
	lo.grid.trim(compiled)
	if ps.Fused != (ps.Fallback == 0) {
		t.Fatalf("%s: fused %v with %d of %d cells per-cell (%s)", label, ps.Fused, ps.Fallback, ps.Compiled+ps.Fallback, ps.Reason)
	}
	var view *core.View
	if lo.path == pathEngineChanges {
		view, err = lo.engine.ExecChangesWith(rc, lo.changes)
	} else {
		view, err = lo.engine.ExecPerspectiveWith(rc, lo.persp)
	}
	if err != nil {
		t.Fatalf("%s: execute to a view: %v", label, err)
	}
	overlay := ev.newGrid(lo.schema, lo.grid, q)
	ps2, err := view.Project(rc, lo.grid.core(), overlay.Values)
	if err != nil {
		t.Fatalf("%s: project over the overlay: %v", label, err)
	}
	lo.grid.trim(overlay)
	if ps2.Fused {
		t.Fatalf("%s: a view projected reports %+v", label, ps2)
	}
	// The served scan folds the base rows in its visit order — the
	// plan's schedule, then its base-only chunks — and, fused, the
	// relocated cells as it reads them; the view's projection folds the
	// base rows in ascending chunk order, then its overlay. Where the
	// two orders are one — nothing scheduled, or a served overlay whose
	// visit ascends — the grids agree bit for bit, else to rounding.
	plan, _ := servedPlan(t, lo)
	if visit := append(slices.Clone(plan.Schedule), plan.BaseChunks...); len(plan.Schedule) == 0 || !ps.Fused && slices.IsSorted(visit) {
		sameGrid(t, label+": served vs overlay, one fold order", compiled, overlay)
	} else {
		closeGrid(t, label+": served vs overlay", compiled, overlay)
	}
	res := view.Result()
	rec := &recordingStore{Store: res.Store(), fp: plan.Footprint}
	wrapped := cube.NewWithStore(rec, res.Dims()...)
	for _, b := range res.Bindings() {
		if err := wrapped.AddBinding(b); err != nil {
			t.Fatal(err)
		}
	}
	wrapped.SetRules(res.Rules())
	perCell, err := ev.project(rc, q, wrapped, lo.mode)
	if err != nil {
		t.Fatalf("%s: per-cell project: %v", label, err)
	}
	if rec.stray != nil {
		t.Fatalf("%s: per-cell project read %v, outside the footprint", label, rec.stray)
	}
	full := view.Stats
	full.ChunksRead += ps2.ChunksRead
	return projected{compiled: compiled, overlay: overlay, perCell: perCell, ps: ps, stats: stats, full: full}
}

// lowerEngine parses and lowers a generated query, which must take an
// engine path whose plan has a footprint; false means the lowering
// refused it (e.g. a change the binding rejects).
func lowerEngine(t *testing.T, label string, ev *Evaluator, src string) (*Query, lowered, bool) {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("%s: generated query does not parse: %v\n%s", label, err, src)
	}
	lo, err := ev.lower(q, nil, trace.SpanRef{})
	if err != nil {
		return nil, lo, false
	}
	if lo.path == pathAlgebra {
		t.Fatalf("%s: engine-capable cube lowered to the algebra path\n%s", label, src)
	}
	if plan, _ := servedPlan(t, lo); plan.Footprint == nil {
		t.Fatalf("%s: the engine derived no footprint\n%s", label, src)
	}
	return q, lo, true
}

// runBothWays runs one query through the engine both ways from one
// lowering — served, under the footprint the engine derives from the
// grid, and to a view, which relocates every scoped cell — and requires
// the same grid to rounding (runProjected), with no more chunks read or
// cells relocated under the footprint. It reports the engine statistics
// of the served run.
func runBothWays(t *testing.T, label string, ev *Evaluator, src string) (core.Stats, bool) {
	t.Helper()
	q, lo, ok := lowerEngine(t, label, ev, src)
	if !ok {
		return core.Stats{}, false
	}
	got := runProjected(t, label+"\n"+src, ev, q, lo)
	if got.stats.ChunksRead > got.full.ChunksRead || got.stats.CellsRelocated > got.full.CellsRelocated {
		t.Fatalf("%s: the footprint made the engine read %d chunks and write %d cells, %d and %d without\n%s",
			label, got.stats.ChunksRead, got.stats.CellsRelocated, got.full.ChunksRead, got.full.CellsRelocated, src)
	}
	return got.stats, true
}

// footprintMatrix runs fn over the property tests' corpus: random
// queries (footprintCubes, queryGen) under the five semantics × two
// modes and WITH CHANGES in each mode, with the chunks dense, sparse
// and run-encoded, under a scenario chain of depth 0 to 2. fn reports
// whether it compared the query (false: the lowering refused it) and
// the engine statistics of the run.
func footprintMatrix(t *testing.T, fn func(label string, ev *Evaluator, src string) (core.Stats, bool)) (ran, pruned, skipped int) {
	sems := []perspective.Semantics{perspective.Static, perspective.Forward, perspective.Backward,
		perspective.ExtendedForward, perspective.ExtendedBackward}
	modes := []perspective.Mode{perspective.NonVisual, perspective.Visual}
	seed := *footprintSeed
	cases := 0
	for _, fc := range footprintCubes {
		for _, rep := range []string{"dense", "sparse", "runs"} {
			base := fc.build(t)
			forceRepresentation(base, rep)
			sc, err := scenario.NewLocal("footprint", base)
			if err != nil {
				t.Fatal(err)
			}
			for depth := 0; depth <= 2; depth++ {
				c := base
				if depth > 0 {
					// One more layer: overwrite a few held cells.
					rng := rand.New(rand.NewSource(seed))
					var edits []scenario.Edit
					base.Store().NonNull(func(addr []int, v float64) bool {
						if len(edits) == 0 || rng.Intn(20) == 0 {
							cell := make(map[string]string, len(addr))
							for i, o := range addr {
								cell[base.Dim(i).Name()] = base.Dim(i).Path(base.Dim(i).Leaf(o).ID)
							}
							edits = append(edits, scenario.Edit{Op: scenario.OpSet, Cell: cell, Value: v + float64(depth)})
						}
						return len(edits) < 25
					})
					if _, err := sc.Apply(edits); err != nil {
						t.Fatal(err)
					}
					if c, _, err = sc.View(); err != nil {
						t.Fatal(err)
					}
				}
				ev := NewEvaluator(c)
				b := c.BindingFor(fc.varying)
				// Every semantics × mode, and a change relation in each
				// mode, per configuration.
				for k := 0; k < len(sems)*len(modes)+len(modes); k++ {
					if *footprintCases > 0 && cases >= *footprintCases {
						return
					}
					cases++
					seed++
					g := &queryGen{rng: rand.New(rand.NewSource(seed)), c: c, varying: c.DimIndex(fc.varying), param: b.Param}
					var with string
					if k < len(sems)*len(modes) {
						with = g.perspective(sems[k/len(modes)], modes[k%len(modes)])
					} else {
						with, _ = g.changes(modes[k-len(sems)*len(modes)])
					}
					label := fmt.Sprintf("seed %d (%s, %s, chain depth %d)", seed, fc.name, rep, depth)
					stats, ok := fn(label, ev, with+g.selectText())
					if !ok {
						skipped++
						continue
					}
					ran++
					if stats.ChunksRead == 0 {
						pruned++
					}
				}
			}
		}
	}
	return ran, pruned, skipped
}

// TestFootprintEquivalence is the footprint's property test: over
// random axis sets (members, .Children, .Levels(n).Members, Descendants,
// CrossJoin, tuples, sets mixing dimensions, a dimension on no axis),
// random slicers, the five semantics × two modes and WITH CHANGES — on
// the paper warehouse, the retail cube (formula rules), and the tiny
// workforce cube in both benchmark layouts, with the chunks dense,
// sparse and run-encoded, under a scenario chain
// of depth 0 to 2 — a query answers the same grid whether the engine
// relocates the footprint it derives from the grid or everything; and
// the per-cell projection, watched through a recording store, reads no
// address off that footprint, which is what makes relocating only it
// safe.
func TestFootprintEquivalence(t *testing.T) {
	ran, pruned, skipped := footprintMatrix(t, func(label string, ev *Evaluator, src string) (core.Stats, bool) {
		return runBothWays(t, label, ev, src)
	})
	// Many grids lie where the cube holds no chunk or are roll-ups under
	// NONVISUAL, and plan nothing; the rest must still be a corpus.
	t.Logf("%d queries compared, %d of them planned no chunk, %d refused by the lowering", ran, pruned, skipped)
	if *footprintCases == 0 && (skipped*10 > ran || (ran-pruned)*4 < ran || pruned*10 < ran) {
		t.Fatalf("coverage: %d compared, %d with an empty plan, %d refused", ran, pruned, skipped)
	}
}

// TestFootprintCorpusReplays: the property tests' corpus is a function
// of its seed. Built twice in one process — cubes, scenario layers and
// queries — it draws the same query texts, so a failing seed replays.
// (A generator that numbered a dimension's members in map order once
// made one seed name a different instance of a moved employee from
// build to build.)
func TestFootprintCorpusReplays(t *testing.T) {
	corpus := func() []string {
		var srcs []string
		footprintMatrix(t, func(label string, _ *Evaluator, src string) (core.Stats, bool) {
			srcs = append(srcs, label+"\n"+src)
			return core.Stats{}, true
		})
		return srcs
	}
	first, second := corpus(), corpus()
	if len(first) != len(second) {
		t.Fatalf("the corpus drew %d queries, then %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("query %d differs between two builds:\n%s\n---\n%s", i, first[i], second[i])
		}
	}
}

// TestProjectCompiledEquivalence is the compiled projection's property
// test over the same corpus: the grid View.Project computes in one
// accumulator pass equals the grid algebra.CellValue computes cell by
// cell over the same view, to 1e-9 relative with Null ≡ Null (the pass
// folds in chunk order, not leaf order). Only the retail cube, whose
// formula rules the pass cannot express, may fall back — and there
// every fallback names a rule.
func TestProjectCompiledEquivalence(t *testing.T) {
	compiled, fallback := 0, 0
	footprintMatrix(t, func(label string, ev *Evaluator, src string) (core.Stats, bool) {
		q, lo, ok := lowerEngine(t, label, ev, src)
		if !ok {
			return core.Stats{}, false
		}
		got := runProjected(t, label+"\n"+src, ev, q, lo)
		closeGrid(t, label+": compiled vs per-cell\n"+src, got.compiled, got.perCell)
		compiled += got.ps.Compiled
		fallback += got.ps.Fallback
		if got.ps.Fallback > 0 && (ev.cube.Rules().Rules() == nil || !strings.HasPrefix(got.ps.Reason, "formula rule ")) {
			t.Fatalf("%s: %d cells fell back (%s)\n%s", label, got.ps.Fallback, got.ps.Reason, src)
		}
		return got.stats, true
	})
	t.Logf("%d grid cells compiled, %d fell back", compiled, fallback)
	if compiled == 0 || fallback == 0 {
		t.Fatalf("coverage: %d cells compiled, %d fell back", compiled, fallback)
	}

	// Grids the random corpus reaches rarely, each in both modes and
	// every chunk representation, on the tiny workforce cube.
	const slicer = ` WHERE ([Account].[Acct001], [Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`
	cubes := map[string]footprintCube{}
	for _, fc := range footprintCubes {
		cubes[fc.name] = fc
	}
	for _, tc := range []struct {
		name, cube, with, sel string
		check                 func(t *testing.T, lo lowered, g *result.Grid)
	}{
		// A leaf feeds its own row and every ancestor's: Dept01, its
		// employees and the dimension root, over the quarters and months.
		{"leaves and ancestors", "workforce-wf", "WITH PERSPECTIVE {(Jan), (Jul)} FOR Department DYNAMIC FORWARD ",
			`SELECT {[Period].[Q1], [Period].[Q1].Children, [Period].[Q3].[Aug]} ON COLUMNS,
{[Department], [Department].[Dept01], [Department].[Dept01].Children} ON ROWS FROM C` + slicer, nil},
		// The split adds the moved employee's new instance under the last
		// department: past the base's extent, so the base decoder drops it
		// and the overlay's chunks alone hold its row.
		{"hypothetical instance at the end", "workforce-wf",
			"WITH CHANGES {([Department].[Dept01].[Emp00013], [Department].[Dept01], [Department].[Dept05], [Apr])} ",
			`SELECT {[Period].Levels(0).Members} ON COLUMNS,
{[Department].[Dept05], [Department].[Dept05].Children, [Department].[Dept01]} ON ROWS FROM C` + slicer,
			func(t *testing.T, lo lowered, g *result.Grid) { movedRow(t, lo, g, "Dept05") }},
		// ...and under the first, where in hierarchy order it would shift
		// every base leaf after it: the new instance still takes the last
		// ordinal, so Dept00's leaves are not contiguous — its base range
		// and the result's last leaf — and no base row is shifted.
		{"hypothetical instance shifting the base", "workforce-wf",
			"WITH CHANGES {([Department].[Dept01].[Emp00013], [Department].[Dept01], [Department].[Dept00], [Apr])} ",
			`SELECT {[Period].Levels(0).Members} ON COLUMNS,
{[Department].[Dept00], [Department].[Dept00].Children, [Department].[Dept01], [Department].[Dept01].Children} ON ROWS FROM C` + slicer,
			func(t *testing.T, lo lowered, g *result.Grid) { movedRow(t, lo, g, "Dept00") }},
		// The validity-window geometry, one account's chunk rows only.
		{"validity window", "workforce-vw", "WITH PERSPECTIVE {(Jan), (Apr)} FOR Department EXTENDED FORWARD ",
			`SELECT {[Period].[Q2], [Period].Levels(0).Members} ON COLUMNS,
{[Department].[Dept02], [Department].[Dept02].Children, [Department].[Dept04].Children} ON ROWS FROM C` + slicer, nil},
	} {
		for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
			for _, rep := range []string{"dense", "sparse", "runs"} {
				label := fmt.Sprintf("%s/%v/%s", tc.name, mode, rep)
				t.Run(strings.ReplaceAll(label, " ", "_"), func(t *testing.T) {
					c := cubes[tc.cube].build(t)
					forceRepresentation(c, rep)
					ev := NewEvaluator(c)
					src := tc.with + mode.String() + " " + tc.sel
					q, lo, ok := lowerEngine(t, label, ev, src)
					if !ok {
						t.Fatalf("the lowering refused\n%s", src)
					}
					got := runProjected(t, label+"\n"+src, ev, q, lo)
					closeGrid(t, label+": compiled vs per-cell\n"+src, got.compiled, got.perCell)
					if got.ps.Fallback > 0 || got.ps.Folded == 0 {
						t.Fatalf("%s: %d cells fell back (%s), %d folds", label, got.ps.Fallback, got.ps.Reason, got.ps.Folded)
					}
					if tc.check != nil {
						tc.check(t, lo, got.compiled)
					}
				})
			}
		}
	}
}

// movedRow checks a "hypothetical instance" case of
// TestProjectCompiledEquivalence: Emp00013's new instance under dept is
// the last leaf of the result's Department dimension, past the base's
// extent, and its row holds December's value.
func movedRow(t *testing.T, lo lowered, g *result.Grid, dept string) {
	t.Helper()
	d := lo.schema.DimByName(workload.DimDepartment)
	moved := d.Member(d.MustLookup(dept + "/Emp00013"))
	if moved.LeafOrdinal != d.NumLeaves()-1 || moved.LeafOrdinal != lo.engine.Binding().Varying.NumLeaves() {
		t.Fatalf("the moved instance has ordinal %d of %d leaves", moved.LeafOrdinal, d.NumLeaves())
	}
	for i, label := range g.RowLabels {
		if label == dept+"/Emp00013" {
			if row := g.Values[i]; cube.IsNull(row[len(row)-1]) {
				t.Fatalf("row %s: %v, want the moved instance's December", label, row)
			}
			return
		}
	}
	t.Fatalf("no row for %s/Emp00013 in %v", dept, g.RowLabels)
}

// closeGrid requires two grids to agree on labels and, cell for cell, on
// values to 1e-9 relative (Null ≡ Null).
func closeGrid(t *testing.T, label string, got, want *result.Grid) {
	t.Helper()
	if fmt.Sprint(got.ColLabels, got.RowLabels) != fmt.Sprint(want.ColLabels, want.RowLabels) {
		t.Fatalf("%s: labels %v %v, want %v %v", label, got.ColLabels, got.RowLabels, want.ColLabels, want.RowLabels)
	}
	for i := range want.Values {
		for j, w := range want.Values[i] {
			g := got.Values[i][j]
			if cube.IsNull(g) != cube.IsNull(w) || !cube.IsNull(w) && math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
				t.Fatalf("%s: cell (%s, %s) = %v, want %v", label, want.RowLabels[i], want.ColLabels[j], g, w)
			}
		}
	}
}

// sameGrid requires two grids to agree on labels and, cell for cell, on
// values (Null ≡ Null).
func sameGrid(t *testing.T, label string, got, want *result.Grid) {
	t.Helper()
	if fmt.Sprint(got.ColLabels, got.RowLabels) != fmt.Sprint(want.ColLabels, want.RowLabels) {
		t.Fatalf("%s: labels %v %v, want %v %v", label, got.ColLabels, got.RowLabels, want.ColLabels, want.RowLabels)
	}
	for i := range want.Values {
		for j, w := range want.Values[i] {
			if g := got.Values[i][j]; g != w && !(cube.IsNull(g) && cube.IsNull(w)) {
				t.Fatalf("%s: cell (%s, %s) = %v, want %v", label, want.RowLabels[i], want.ColLabels[j], g, w)
			}
		}
	}
}

// spanAttrs runs a query under a trace and returns the attributes of its
// first span of each name.
func spanAttrs(t *testing.T, ev *Evaluator, q *Query, attrs map[string][]string) map[string]int64 {
	t.Helper()
	tr := trace.New(0)
	root := tr.Start(trace.SpanRef{}, "eval")
	ctx := trace.WithSpan(trace.NewContext(context.Background(), tr), root)
	if _, _, err := ev.RunQueryStatsWith(RunContext{Ctx: ctx}, q); err != nil {
		t.Fatal(err)
	}
	root.End()
	out := map[string]int64{}
	for _, s := range tr.Spans() {
		for _, name := range attrs[s.Name] {
			if v, ok := s.Attr(name); ok {
				if _, seen := out[name]; !seen {
					out[name] = v
				}
			}
		}
	}
	return out
}

// TestFootprintEmptyPlansNothing: a NONVISUAL grid of roll-ups retains
// every cell from the input (Definition 4.5), so its footprint is empty
// and the engine plans nothing and its scan reads and relocates nothing
// — every chunk read is the projection's, of the input's cells — while
// the answer is the plain SELECT's.
func TestFootprintEmptyPlansNothing(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(w.Cube)
	sel := `SELECT {[Period].Levels(1).Members} ON COLUMNS, {[Department].Levels(1).Members} ON ROWS
FROM [App].[Db] WHERE ([Account].[Acct001], [Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`
	for _, mode := range []string{"NONVISUAL", "VISUAL"} {
		q := MustParse("WITH PERSPECTIVE {(Jan), (Jul)} FOR Department DYNAMIC FORWARD " + mode + " " + sel)
		g, stats, ps, err := ev.RunQueryProjectedWith(RunContext{}, q)
		if err != nil {
			t.Fatal(err)
		}
		text, err := ev.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if mode == "VISUAL" {
			// The control: the same grid re-aggregated reads the cube.
			if stats.ChunksRead == 0 || stats.CellsRelocated == 0 || !strings.Contains(text, "Period 12/12") {
				t.Fatalf("VISUAL roll-up read nothing: %+v\n%s", stats, text)
			}
			continue
		}
		if stats.ChunksRead != ps.ChunksRead || stats.CellsRelocated != 0 || stats.MergeGroups != 0 {
			t.Fatalf("NONVISUAL roll-up: %+v (projection %+v), want no chunk read by the scan", stats, *ps)
		}
		if stats.MembersInScope == 0 {
			t.Fatalf("the scope is the departments' members whatever the footprint: %+v", stats)
		}
		// Nothing to plan: no member moved, no source instance, no merge
		// graph — the query is the base and input fold alone.
		want := fmt.Sprintf("physical plan: scope %d members, 0 moved by Φ; 0 relevant chunks, %d base-only chunks, 0 merge groups, 0 merge edges",
			stats.MembersInScope, stats.ChunksRead)
		if stats.MembersMoved != 0 || stats.SourceInstances != 0 || !strings.Contains(text, want) {
			t.Fatalf("NONVISUAL roll-up planned %+v, want nothing\n%s", stats, text)
		}
		plain, err := ev.Run(sel)
		if err != nil {
			t.Fatal(err)
		}
		sameGrid(t, "NONVISUAL roll-up vs plain SELECT", g, plain)
		// The footprint line counts what the scan reads: no relocated
		// chunk, and the base-only chunks of the input fold.
		if line := fmt.Sprintf("; 0 relocated and %d base-only of ", stats.ChunksRead); !strings.Contains(text, "Period 0/12") || !strings.Contains(text, line) {
			t.Fatalf("EXPLAIN does not show the empty footprint and its base-only reads (%q):\n%s", line, text)
		}
	}
}

// TestFootprintChangesHypotheticalInstance: under WITH CHANGES the axes
// resolve against the split's schema, so a slicer can name the instance
// the change creates; the footprint is then that one new ordinal, the
// engine relocates the moved months of one row and nothing else, and the
// answer is the algebra path's.
func TestFootprintChangesHypotheticalInstance(t *testing.T) {
	with := "WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], [Apr])} VISUAL "
	sel := `SELECT {[Time].Levels(0).Members} ON COLUMNS, {[Measures].[Salary]} ON ROWS
FROM W WHERE ([Location].[NY], [Organization].[PTE].[Lisa])`
	q := MustParse(with + sel)
	ev := NewEvaluator(paperdata.ChunkedWarehouse(nil))
	lo, err := ev.lower(q, nil, trace.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	vi := lo.schema.DimIndex("Organization")
	plan, _ := servedPlan(t, lo)
	if fp := plan.Footprint; fp == nil || fp[vi].Len() != 1 ||
		fp[vi].Min() != lo.schema.Dim(vi).Member(lo.schema.Dim(vi).MustLookup("PTE/Lisa")).LeafOrdinal {
		t.Fatalf("varying footprint = %v, want the hypothetical instance PTE/Lisa alone", plan.Footprint)
	}
	g, stats, err := ev.RunQueryStatsWith(RunContext{}, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEvaluator(paperdata.Warehouse()).Run(with + sel)
	if err != nil {
		t.Fatal(err)
	}
	sameGrid(t, "hypothetical instance", g, want)
	moved := 0
	for _, v := range g.Values[0] {
		if !cube.IsNull(v) {
			moved++
		}
	}
	if moved == 0 || stats.CellsRelocated != moved {
		t.Fatalf("%d cells relocated for a row of %d non-null cells: %+v", stats.CellsRelocated, moved, stats)
	}
	full, err := lo.engine.ExecChangesWith(RunContext{}, lo.changes)
	if err != nil {
		t.Fatalf("without the footprint: %v", err)
	}
	if full.Stats.CellsRelocated <= stats.CellsRelocated {
		t.Fatalf("without the footprint: %+v", full.Stats)
	}
}

// TestFootprintRuleDimensionStaysOpen: Margin reads Sales and COGS, so a
// slicer on Measures must not restrict Measures — while the other sliced
// dimension still is — and the answer is the algebra path's.
func TestFootprintRuleDimensionStaysOpen(t *testing.T) {
	rt, err := workload.NewRetailByTime(workload.ConfigRetail())
	if err != nil {
		t.Fatal(err)
	}
	src := `WITH PERSPECTIVE {(Jan)} FOR Product DYNAMIC FORWARD VISUAL
SELECT {[Time].Children} ON COLUMNS, {[Product].Children} ON ROWS
FROM Retail WHERE ([Market].[East].[E1], [Measures].[Margin%])`
	q := MustParse(src)
	ev := NewEvaluator(chunkedCopy(rt.Cube, []int{4, 5, 2, 3}))
	lo, err := ev.lower(q, nil, trace.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := servedPlan(t, lo)
	fp := plan.Footprint
	if fp[lo.schema.DimIndex("Measures")] != nil || fp[lo.schema.DimIndex("Market")].Len() != 1 {
		t.Fatalf("footprint = %v, want Measures open and Market one leaf", fp)
	}
	g, _, err := ev.RunQueryStatsWith(RunContext{}, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEvaluator(rt.Cube).Run(src)
	if err != nil {
		t.Fatal(err)
	}
	sameGrid(t, "Margin% under a footprint", g, want)
	text, err := ev.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Measures all (rules)") || !strings.Contains(text, "Market 1/6") {
		t.Fatalf("EXPLAIN footprint line:\n%s", text)
	}

	// A rule set that reaches every dimension lifts the footprint whole.
	c := chunkedCopy(rt.Cube, []int{4, 5, 2, 3})
	rules := cube.NewRuleSet()
	rules.MustAddFormula("Measures", "Margin", "Sales - COGS")
	rules.MustAddFormula("Product", "Nothing", "[Time].[Jan] + [Market].[East]")
	c.SetRules(rules)
	text, err = NewEvaluator(c).Explain(MustParse(strings.Replace(src, "Margin%", "Margin", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "\nfootprint: none (formula rules reach every dimension)\n") {
		t.Fatalf("EXPLAIN under all-reaching rules:\n%s", text)
	}
}

// TestFootprintFallbackCellsRead: on the retail cube every Margin cell
// falls back to per-cell evaluation, which reads the result cube's
// leaves for a leaf cell and, under VISUAL, for a roll-up — so a grid
// whose only result-reading cells fall back still plans the leaves under
// them, and answers as the general path does. Were fallback cells left
// out of the footprint, the scoped products' rows would be relocated
// nowhere and read ⊥.
func TestFootprintFallbackCellsRead(t *testing.T) {
	rt, err := workload.NewRetailByTime(workload.ConfigRetail())
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(chunkedCopy(rt.Cube, []int{4, 5, 2, 3}))
	for _, src := range []string{
		`WITH PERSPECTIVE {(Jan)} FOR Product DYNAMIC FORWARD NONVISUAL
SELECT {[Measures].[Margin]} ON COLUMNS, {[Product].Levels(0).Members} ON ROWS
FROM Retail WHERE ([Market].[East].[E1], [Time].[Mar])`,
		`WITH PERSPECTIVE {(Jan)} FOR Product DYNAMIC FORWARD VISUAL
SELECT {[Measures].[Margin]} ON COLUMNS, {[Product].Children} ON ROWS
FROM Retail WHERE ([Market].[East])`,
	} {
		q := MustParse(src)
		lo, err := ev.lower(q, nil, trace.SpanRef{})
		if err != nil {
			t.Fatal(err)
		}
		g, stats, err := ev.RunQueryStatsWith(RunContext{}, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewEvaluator(rt.Cube).Run(src)
		if err != nil {
			t.Fatal(err)
		}
		sameGrid(t, "Margin cells that fall back\n"+src, g, want)
		if stats.CellsRelocated == 0 {
			t.Fatalf("nothing relocated: %+v\n%s", stats, src)
		}
		plan, ps := servedPlan(t, lo)
		market := plan.Footprint[lo.schema.DimIndex("Market")]
		if ps.Compiled != 0 || ps.Fallback == 0 || market == nil || market.Len() == 0 || plan.Stats.RelevantChunks == 0 {
			t.Fatalf("%+v, Market footprint %v, %d chunks planned: want every cell per-cell and the leaves under them planned\n%s",
				ps, market, plan.Stats.RelevantChunks, src)
		}
	}
}

// TestFootprintNonVisualLeafCellsOnly: under NONVISUAL a roll-up cell is
// retained from the input, so an employee × {quarter, month} grid plans
// the footprint of its leaf cells alone — the month, not the quarter's
// months — and answers what the complete view does cell by cell. The
// month is March, whose Contractor/Joe cell forward semantics moves to
// PTE/Joe: the one relocation the footprint keeps.
func TestFootprintNonVisualLeafCellsOnly(t *testing.T) {
	src := `WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD NONVISUAL
SELECT {[Time].[Qtr2], [Time].[Qtr1].[Mar]} ON COLUMNS, {[PTE].Children} ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Salary])`
	ev := NewEvaluator(paperdata.ChunkedWarehouse(nil))
	q, lo, ok := lowerEngine(t, "employee × {quarter, month}", ev, src)
	if !ok {
		t.Fatal("the lowering refused")
	}
	plan, _ := servedPlan(t, lo)
	want := map[string][]string{"Organization": {"PTE/Tom", "PTE/Dave", "PTE/Joe"}, "Time": {"Qtr1/Mar"}, "Location": {"East/NY"}, "Measures": {"Compensation/Salary"}}
	for name, refs := range want {
		d := lo.schema.DimIndex(name)
		dim := lo.schema.Dim(d)
		set := plan.Footprint[d]
		if set == nil || set.Len() != len(refs) {
			t.Fatalf("%s footprint = %v, want %v", name, set, refs)
		}
		for _, ref := range refs {
			if !set.Contains(dim.Member(dim.MustLookup(ref)).LeafOrdinal) {
				t.Fatalf("%s footprint = %v, want %v", name, set, refs)
			}
		}
	}
	got := runProjected(t, src, ev, q, lo)
	sameGrid(t, "served vs the complete view cell by cell", got.compiled, got.perCell)
	if got.stats.CellsRelocated == 0 || got.stats.CellsRelocated >= got.full.CellsRelocated {
		t.Fatalf("%d cells relocated under the footprint, %d without", got.stats.CellsRelocated, got.full.CellsRelocated)
	}
}

// TestFootprintSpans: the plan span carries the footprint's size and the
// chunks it took off the schedule, the scan span the cells surviving
// slabs held back — and none of the three appears on a query whose
// footprint excludes nothing.
func TestFootprintSpans(t *testing.T) {
	ev := NewEvaluator(paperdata.ChunkedWarehouse(nil))
	attrs := map[string][]string{"plan": {"footprint_cells", "chunks_pruned"}, "scan": {"cells_off_grid", "cells_relocated"}}
	got := spanAttrs(t, ev, MustParse(`
WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS, {[PTE].Children} ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Salary])`), attrs)
	// 3 instances × NY × 12 months × Salary; one chunk of the other
	// measures dropped; NY shares its slabs with a neighbour. Tom and Dave
	// are Φ's fixed points, read as base rows: PTE/Joe's two cells are
	// all the scan relocates.
	if got["footprint_cells"] != 36 || got["chunks_pruned"] != 1 || got["cells_off_grid"] == 0 || got["cells_relocated"] != 2 {
		t.Fatalf("span attributes = %v", got)
	}
	got = spanAttrs(t, ev, MustParse(`
WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
SELECT {[Time]} ON COLUMNS, {[Organization]} ON ROWS FROM W`), attrs)
	if _, ok := got["chunks_pruned"]; ok || got["cells_off_grid"] != 0 || got["cells_relocated"] == 0 {
		t.Fatalf("whole-cube grid: span attributes = %v", got)
	}
}
