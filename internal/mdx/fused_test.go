package mdx

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/perspective"
	"whatifolap/internal/scenario"
	"whatifolap/internal/segment"
	"whatifolap/internal/trace"
	"whatifolap/internal/workload"
)

// fusedReports are the report shapes the benchmark serves, as
// TestProjectCompiledReports draws them, under one semantics and mode —
// the department report, the leaf report, the roll-up and the employee
// query — plus a leaf report of the first and the last instance, whose
// varying leaves are too scattered for an index spanning them, and the
// changes query, whose new instance takes an ordinal past the base's
// extent. The broad-scan workload's shapes are here too: its leaf
// report over up to eight departments' children ("broad-leaf"), mostly
// Φ's fixed points, and its static and dynamic roll-ups ("rollup").
func fusedReports(t *testing.T, c *cube.Cube, sem perspective.Semantics, mode perspective.Mode) map[string]string {
	const (
		slicer   = "[Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue]"
		accounts = "{[Account].Levels(0).Members}"
		periods  = "{Descendants([Period], 1, SELF_AND_AFTER)}"
	)
	b := c.BindingFor(workload.DimDepartment)
	emp := b.Varying.Path(b.InstanceAt(b.Varying.VaryingMembers()[0], 0))
	first, last := b.Varying.Path(b.Varying.Leaf(0).ID), b.Varying.Path(b.Varying.Leaf(b.Varying.NumLeaves()-1).ID)
	var depts []string
	for _, d := range b.Varying.Member(0).Children[:min(8, len(b.Varying.Member(0).Children))] {
		depts = append(depts, "["+b.Varying.Path(d)+"].Children")
	}
	with := fmt.Sprintf("WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department %v %v ", sem, mode)
	return map[string]string{
		"department": with + `SELECT ` + accounts + ` ON COLUMNS, {CrossJoin({[Dept01]}, ` + periods + `)} ON ROWS FROM [App].[Db] WHERE (` + slicer + `)`,
		"leaf-report": with + `SELECT {[Period].Levels(0).Members} ON COLUMNS, {[Dept00].Children, [Dept02].Children} ON ROWS
FROM [App].[Db] WHERE ([Account].[Acct001], ` + slicer + `)`,
		"rollup": with + `SELECT {[Period].Levels(1).Members} ON COLUMNS, {[Department].Levels(1).Members} ON ROWS
FROM [App].[Db] WHERE ([Account].[Acct002], ` + slicer + `)`,
		"employee": with + `SELECT ` + accounts + ` ON COLUMNS, {CrossJoin({[` + emp + `]}, ` + periods + `)} ON ROWS FROM [App].[Db] WHERE (` + slicer + `)`,
		"broad-leaf": with + `SELECT {[Period].Levels(0).Members} ON COLUMNS, {` + strings.Join(depts, ", ") + `} ON ROWS
FROM [App].[Db] WHERE ([Account].[Acct003], ` + slicer + `)`,
		"scattered": with + `SELECT {[Period].Levels(0).Members} ON COLUMNS, {[` + first + `], [` + last + `]} ON ROWS
FROM [App].[Db] WHERE ([Account].[Acct001], ` + slicer + `)`,
		"changes": fmt.Sprintf("WITH CHANGES {([Dept00].[Emp00030], [Dept00], [Dept01], [Apr])} %v ", mode) +
			`SELECT ` + accounts + ` ON COLUMNS, {CrossJoin({[Dept01]}, ` + periods + `)} ON ROWS FROM [App].[Db] WHERE (` + slicer + `)`,
	}
}

// fusedStorages builds the tiny workforce cube on each storage the
// fused scan must agree on: as generated, every chunk sparse, the
// validity-window shape run-encoded, paged from a segment file behind a
// pool of three chunks, and under a scenario chain of two layers.
var fusedStorages = []struct {
	name  string
	build func(t *testing.T) *cube.Cube
}{
	{"dense", func(t *testing.T) *cube.Cube { return tinyWorkforce(t, nil) }},
	{"sparse", func(t *testing.T) *cube.Cube {
		c := tinyWorkforce(t, nil)
		forceRepresentation(c, "sparse")
		return c
	}},
	{"runs", func(t *testing.T) *cube.Cube {
		c := tinyWorkforce(t, func(cfg *workload.WorkforceConfig) {
			cfg.FlatMonths = true
			cfg.ChunkDims = []int{16, 12, 1, 1, 1, 1, 1}
		})
		forceRepresentation(c, "runs")
		return c
	}},
	{"paged", func(t *testing.T) *cube.Cube {
		c := tinyWorkforce(t, nil)
		st := c.Store().(*chunk.Store)
		if err := segment.PageOut(st, filepath.Join(t.TempDir(), "wf.seg"), 3*8*st.Geometry().ChunkCap()); err != nil {
			t.Fatal(err)
		}
		return c
	}},
	{"chain", func(t *testing.T) *cube.Cube {
		base := tinyWorkforce(t, nil)
		sc, err := scenario.NewLocal("fused", base)
		if err != nil {
			t.Fatal(err)
		}
		for layer := 1; layer <= 2; layer++ {
			var edits []scenario.Edit
			n := 0
			base.Store().NonNull(func(addr []int, v float64) bool {
				if n++; n%7 == layer {
					cell := make(map[string]string, len(addr))
					for i, o := range addr {
						cell[base.Dim(i).Name()] = base.Dim(i).Path(base.Dim(i).Leaf(o).ID)
					}
					edits = append(edits, scenario.Edit{Op: scenario.OpSet, Cell: cell, Value: v + float64(layer)})
				}
				return len(edits) < 40
			})
			if _, err := sc.Apply(edits); err != nil {
				t.Fatal(err)
			}
		}
		c, _, err := sc.View()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}},
}

func tinyWorkforce(t *testing.T, edit func(*workload.WorkforceConfig)) *cube.Cube {
	t.Helper()
	cfg := workload.ConfigTiny()
	if edit != nil {
		edit(&cfg)
	}
	w, err := workload.NewWorkforce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w.Cube
}

// TestFusedEquivalence: the benchmark's report shapes under the five
// semantics × two modes, and the changes query in each mode, answer the
// same grid fused (the scan folds into the grid's accumulators), over an
// overlay (executed without the grid) and cell by cell
// (algebra.CellValue over the view read as a cube) — on every storage:
// dense, sparse, run-encoded, paged behind a small pool, and under a
// scenario chain. Each report compiles whole, so each fuses.
func TestFusedEquivalence(t *testing.T) {
	sems := []perspective.Semantics{perspective.Static, perspective.Forward, perspective.Backward,
		perspective.ExtendedForward, perspective.ExtendedBackward}
	for _, st := range fusedStorages {
		t.Run(st.name, func(t *testing.T) {
			ev := NewEvaluator(st.build(t))
			for _, sem := range sems {
				for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
					for name, src := range fusedReports(t, ev.cube, sem, mode) {
						if name == "changes" && sem != perspective.Static {
							continue // one changes query per mode
						}
						label := fmt.Sprintf("%s %s %v %v", st.name, name, sem, mode)
						q, lo, ok := lowerEngine(t, label, ev, src)
						if !ok {
							t.Fatalf("%s: the lowering refused\n%s", label, src)
						}
						got := runProjected(t, label+"\n"+src, ev, q, lo)
						closeGrid(t, label+": fused vs per-cell\n"+src, got.compiled, got.perCell)
						if !got.ps.Fused {
							t.Fatalf("%s: not fused: %+v", label, got.ps)
						}
					}
				}
			}
		})
	}
}

// TestFusedRunSpans: a run span folds as AggFunc.Apply folds its cells
// one by one, under every aggregation. The values are made constant
// across accounts and scenarios and every chunk run-encoded, so a slab's
// cells — accounts × scenarios — are one run. With Account and Scenario
// on no axis and in no slicer, all of them feed the same grid cells, so
// each segment folds as one fold of that many equal cells; with the
// accounts on the columns, a run's neighbours feed the same grid cells
// in pairs — the two scenarios of one account — and fold apart from the
// next pair.
func TestFusedRunSpans(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	ai, si := w.Cube.DimIndex(workload.DimAccount), w.Cube.DimIndex(workload.DimScenario)
	st := w.Cube.Store().(*chunk.Store)
	flat := chunk.NewStore(st.Geometry())
	st.NonNull(func(addr []int, v float64) bool {
		a, s := addr[ai], addr[si]
		addr[ai], addr[si] = 0, 0
		base := st.Get(addr)
		addr[ai], addr[si] = a, s
		flat.Set(addr, base)
		return true
	})
	c := cube.NewWithStore(flat, w.Cube.Dims()...)
	for _, b := range w.Cube.Bindings() {
		if err := c.AddBinding(b); err != nil {
			t.Fatal(err)
		}
	}
	forceRepresentation(c, "runs")
	runs := 0
	for _, id := range flat.ChunkIDs() {
		if flat.PeekChunk(id).Rep() == chunk.RunEncoded {
			runs++
		}
	}
	if runs == 0 {
		t.Fatal("no chunk is run-encoded")
	}
	for _, f := range []cube.AggFunc{cube.AggSum, cube.AggAvg, cube.AggMin, cube.AggMax, cube.AggCount} {
		rules := cube.NewRuleSet()
		rules.SetDefaultAgg(f)
		c.SetRules(rules)
		ev := NewEvaluator(c)
		for _, mode := range []string{"VISUAL", "NONVISUAL"} {
			with := `WITH PERSPECTIVE {(Feb), (Jul)} FOR Department DYNAMIC FORWARD ` + mode + `
`
			checkCompiled(t, fmt.Sprintf("%v %s whole slab", f, mode), ev, with+`SELECT {Descendants([Period], 1, SELF_AND_AFTER)} ON COLUMNS, {[Dept01], [Dept01].Children} ON ROWS
FROM [App].[Db] WHERE ([Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`)
			checkCompiled(t, fmt.Sprintf("%v %s by account", f, mode), ev, with+`SELECT {[Account], [Account].Levels(0).Members} ON COLUMNS, {[Dept01], [Dept01].Children} ON ROWS
FROM [App].[Db] WHERE ([Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`)
		}
	}
}

// TestFusedFoldIsOverwrite: a fused scan adds a relocated cell into its
// accumulators where an overlay write overwrites, so the two agree only
// if no two source cells of one plan reach the same destination cell.
// Every plan of the report corpus — five semantics × two modes, and the
// changes query — maps at most one source instance to each destination
// instance at each parameter leaf.
func TestFusedFoldIsOverwrite(t *testing.T) {
	c := tinyWorkforce(t, nil)
	ev := NewEvaluator(c)
	nT := c.BindingFor(workload.DimDepartment).Param.NumLeaves()
	for _, sem := range []perspective.Semantics{perspective.Static, perspective.Forward, perspective.Backward,
		perspective.ExtendedForward, perspective.ExtendedBackward} {
		for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
			for name, src := range fusedReports(t, c, sem, mode) {
				label := fmt.Sprintf("%s %v %v", name, sem, mode)
				q, lo, ok := lowerEngine(t, label, ev, src)
				if !ok {
					t.Fatalf("%s: the lowering refused", label)
				}
				var err error
				plan, err := lo.engine.PlanPerspective(lo.persp)
				if q.Changes != nil {
					plan, err = lo.engine.PlanChanges(lo.changes)
				}
				if err != nil {
					t.Fatal(err)
				}
				sources := 0
				for tl := 0; tl < nT; tl++ {
					seen := map[int]int{}
					for src := 0; src < lo.engine.Binding().Varying.NumLeaves(); src++ {
						row := plan.Target.Row(src)
						if row == nil || row[tl] < 0 {
							continue
						}
						sources++
						if prev, dup := seen[row[tl]]; dup {
							t.Fatalf("%s: sources %d and %d both reach destination %d at parameter leaf %d", label, prev, src, row[tl], tl)
						}
						seen[row[tl]] = src
					}
				}
				if sources == 0 {
					t.Fatalf("%s: the plan relocates nothing", label)
				}
			}
		}
	}
}

// faultyTier is a segment file as the buffer pool sees it, failing
// every read after the first ok ones the way a bad disk does: with the
// error a segment file returns for a checksum mismatch.
type faultyTier struct {
	capacity int
	recs     map[int][]byte
	ok       int32
	reads    atomic.Int32
}

var errBadSlot = errors.New("slot CRC mismatch")

func (f *faultyTier) ReadChunkAt(id int) (*chunk.Chunk, float64, error) {
	if f.reads.Add(1) > f.ok {
		return nil, 0, fmt.Errorf("segment /data/wf.seg: slot %d: %w", id, errBadSlot)
	}
	rec, ok := f.recs[id]
	if !ok {
		return nil, 0, nil
	}
	c, err := chunk.DecodeChunk(rec, f.capacity)
	return c, 0, err
}

func (f *faultyTier) Contains(id int) bool { _, ok := f.recs[id]; return ok }
func (f *faultyTier) Cells(id int) int     { return chunk.RecordCells(f.recs[id]) }

func (f *faultyTier) IDs() []int {
	ids := make([]int, 0, len(f.recs))
	for id := range f.recs {
		ids = append(ids, id)
	}
	return ids
}

// TestFusedTierFault: a chunk read the tier fails is an error of the
// query, not a panic — called here with no recover on the stack, so a
// panic would fail the test binary. It names the chunk and the segment,
// and the pins the scan took and its lease are released. The fault lands in the
// fused scan (a VISUAL department report) and in the projection's base
// pass (a NONVISUAL roll-up, whose scan reads nothing) — served, and
// run to a view (ExecPerspectiveWith) whose scan builds an overlay and
// projected over it (View.Project).
func TestFusedTierFault(t *testing.T) {
	c := tinyWorkforce(t, nil)
	st := c.Store().(*chunk.Store)
	tier := &faultyTier{capacity: st.Geometry().ChunkCap(), recs: map[int][]byte{}}
	for _, id := range st.ChunkIDs() {
		tier.recs[id] = chunk.EncodeChunk(st.PeekChunk(id))
	}
	if err := st.AttachTier(tier, 1); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(c)
	reports := fusedReports(t, c, perspective.Forward, perspective.Visual)
	for _, tc := range []struct{ name, src string }{
		{"scan", reports["department"]},
		{"project", strings.Replace(reports["rollup"], "VISUAL", "NONVISUAL", 1)},
	} {
		q := MustParse(tc.src)
		lo, err := ev.lower(q, nil, trace.SpanRef{})
		if err != nil {
			t.Fatal(err)
		}
		for _, way := range []struct {
			name string
			run  func() error
		}{
			{"served", func() error { _, _, err := ev.RunQueryStatsWith(RunContext{}, q); return err }},
			{"view", func() error {
				view, err := lo.engine.ExecPerspectiveWith(RunContext{}, lo.persp)
				if err != nil {
					return err
				}
				_, err = view.Project(RunContext{}, lo.grid.core(), ev.newGrid(lo.schema, lo.grid, q).Values)
				return err
			}},
		} {
			for _, ok := range []int32{0, 2} {
				tier.ok = tier.reads.Load() + ok
				err := way.run()
				var re *chunk.ReadError
				if !errors.As(err, &re) || !errors.Is(err, errBadSlot) || !strings.Contains(err.Error(), "/data/wf.seg") ||
					!strings.Contains(err.Error(), fmt.Sprintf("chunk %d", re.ID)) {
					t.Fatalf("%s %s after %d good reads: %v, want the tier's read error naming the chunk and the segment", tc.name, way.name, ok, err)
				}
				if ps := st.SpillStats(); ps.Pinned != 0 || ps.Leased != 0 {
					t.Fatalf("%s %s: %d chunks still pinned, %d leases outstanding after the fault", tc.name, way.name, ps.Pinned, ps.Leased)
				}
			}
		}
	}
}

// TestColdQueryRecyclesFrames: served queries over the paged storage
// fault chunk after chunk through a three-chunk pool, and each fault's
// decode fills a dense array an eviction freed instead of a fresh one.
// So the queries allocate a bounded number of dense arrays, not one per
// fault: over what the same queries allocate on the resident cube, the
// paged run's faults add less than a quarter of the dense arrays they
// decode. (A GC may empty the free list once or twice; the race
// detector drops frames at random, so the pin does not run under it.)
func TestColdQueryRecyclesFrames(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops frames at random under the race detector")
	}
	const rounds = 10
	measure := func(storage string) (alloc uint64, ps chunk.SpillStats, frame uint64) {
		var c *cube.Cube
		for _, st := range fusedStorages {
			if st.name == storage {
				c = st.build(t)
			}
		}
		ev := NewEvaluator(c)
		st := c.Store().(*chunk.Store)
		var qs []*Query
		for _, name := range []string{"department", "leaf-report", "employee", "scattered"} {
			qs = append(qs, MustParse(fusedReports(t, c, perspective.Forward, perspective.Visual)[name]))
		}
		run := func() {
			for _, q := range qs {
				if _, _, err := ev.RunQueryStatsWith(RunContext{}, q); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // evict what the attach left resident
		before := st.SpillStats()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		after := st.SpillStats()
		after.Faults -= before.Faults
		after.Recycled -= before.Recycled
		return m1.TotalAlloc - m0.TotalAlloc, after, uint64(8 * st.Geometry().ChunkCap())
	}
	resident, _, _ := measure("dense")
	paged, ps, frame := measure("paged")
	t.Logf("%d faults recycled %d dense arrays of %d B; %d B allocated paged, %d B resident", ps.Faults, ps.Recycled, frame, paged, resident)
	if ps.Faults < 20*rounds || ps.Recycled < ps.Faults/2 {
		t.Fatalf("%d faults recycled %d dense arrays: too few for the pin to show anything", ps.Faults, ps.Recycled)
	}
	if paged > resident+uint64(ps.Faults)*frame/4 {
		t.Fatalf("%d faults allocated %d B over the resident run's %d B: a quarter of their %d B of dense arrays or more",
			ps.Faults, paged-resident, resident, uint64(ps.Faults)*frame)
	}
}

// TestFusedFaultsCounted: a served query's SpillFaults, FaultMs and
// ChunksRead count every chunk read of its one chunk loop — the
// schedule's and the base-only chunks' — on the cube paged behind a
// three-chunk pool. So SpillFaults equals the "fault" spans in the
// query's trace, and ChunksRead the chunks_read of its scan span. A
// NONVISUAL roll-up reads base-only chunks alone.
func TestFusedFaultsCounted(t *testing.T) {
	var ev *Evaluator
	for _, st := range fusedStorages {
		if st.name == "paged" {
			ev = NewEvaluator(st.build(t))
		}
	}
	total := 0
	for _, sem := range []perspective.Semantics{perspective.Static, perspective.Forward, perspective.Backward,
		perspective.ExtendedForward, perspective.ExtendedBackward} {
		for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
			for name, src := range fusedReports(t, ev.cube, sem, mode) {
				if name == "changes" && sem != perspective.Static {
					continue // one changes query per mode
				}
				label := fmt.Sprintf("%s %v %v", name, sem, mode)
				tr := trace.New(0)
				root := tr.Start(trace.SpanRef{}, "eval")
				rc := RunContext{Ctx: trace.WithSpan(trace.NewContext(context.Background(), tr), root)}
				_, stats, err := ev.RunQueryStatsWith(rc, MustParse(src))
				root.End()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if tr.Dropped() != 0 {
					t.Fatalf("%s: %d spans dropped", label, tr.Dropped())
				}
				faults, reads := 0, int64(0)
				for _, sp := range tr.Spans() {
					switch sp.Name {
					case "fault":
						faults++
					case "scan":
						n, _ := sp.Attr("chunks_read")
						reads += n
					}
				}
				if stats.SpillFaults != faults || int64(stats.ChunksRead) != reads {
					t.Fatalf("%s: stats count %d faults and %d chunk reads, the trace %d and %d\n%s",
						label, stats.SpillFaults, stats.ChunksRead, faults, reads, tr.Render())
				}
				if (faults > 0) != (stats.FaultMs > 0) {
					t.Fatalf("%s: %d faults took %v ms", label, faults, stats.FaultMs)
				}
				total += faults
			}
		}
	}
	if total == 0 {
		t.Fatal("no query faulted: the pool holds the whole cube")
	}
}

// TestFusedOneReadPerChunk: a served query reads each chunk once — the
// scan's schedule and the chunks the grid's base and input cells need
// are one loop — so on the cube paged behind a three-chunk pool, once
// the pool holds none of its chunks, the VISUAL WITH CHANGES report
// faults once per distinct chunk, 4 faults for 4 chunks, and
// Stats.ChunksRead is the number of distinct chunks read. (When the
// projection walked the base in a pass of its own, that report faulted
// six times for four chunks, re-reading what the scan had just read.)
func TestFusedOneReadPerChunk(t *testing.T) {
	var c *cube.Cube
	for _, st := range fusedStorages {
		if st.name == "paged" {
			c = st.build(t)
		}
	}
	ev := NewEvaluator(c)
	q := MustParse(fusedReports(t, c, perspective.Static, perspective.Visual)["changes"])
	store := c.Store().(*chunk.Store)
	var reads []int
	store.SetReadHook(func(id int) { reads = append(reads, id) })
	defer store.SetReadHook(nil)
	run := func() (*trace.Trace, int, int) {
		reads = reads[:0]
		tr := trace.New(0)
		root := tr.Start(trace.SpanRef{}, "eval")
		rc := RunContext{Ctx: trace.WithSpan(trace.NewContext(context.Background(), tr), root)}
		_, stats, err := ev.RunQueryStatsWith(rc, q)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		return tr, stats.ChunksRead, stats.SpillFaults
	}
	run()
	read := map[int]bool{}
	for _, id := range reads {
		read[id] = true
	}
	// Cool the pool: every other chunk read after the report's.
	for _, id := range store.ChunkIDs() {
		if !read[id] {
			store.ReadChunk(id)
		}
	}
	tr, chunksRead, spillFaults := run()
	distinct := map[int]bool{}
	for _, id := range reads {
		distinct[id] = true
	}
	faulted := map[int64]bool{}
	for _, sp := range tr.Spans() {
		if sp.Name != "fault" {
			continue
		}
		id, _ := sp.Attr("chunk")
		if faulted[id] {
			t.Fatalf("chunk %d faulted twice\n%s", id, tr.Render())
		}
		faulted[id] = true
	}
	if len(reads) != len(distinct) || chunksRead != len(distinct) {
		t.Fatalf("%d chunk reads of %d distinct chunks, stats %d: want each chunk read once\n%s",
			len(reads), len(distinct), chunksRead, tr.Render())
	}
	if len(distinct) != 4 || len(faulted) != 4 || spillFaults != 4 {
		t.Fatalf("%d distinct chunks read, %d faults (stats %d): want 4 and 4\n%s",
			len(distinct), len(faulted), spillFaults, tr.Render())
	}
}

// relaidCopy returns c with its dimensions in the given order — order[i]
// is the dimension of c that comes i-th — chunked by chunkDims, or, with
// chunkDims nil, in a map-backed store, which lowers every query to the
// algebra path.
func relaidCopy(t *testing.T, c *cube.Cube, order, chunkDims []int) *cube.Cube {
	t.Helper()
	dims, extents := make([]*dimension.Dimension, len(order)), make([]int, len(order))
	for i, d := range order {
		dims[i], extents[i] = c.Dim(d), c.Dim(d).NumLeaves()
	}
	out := cube.New(dims...)
	if chunkDims != nil {
		out = cube.NewWithStore(chunk.NewStore(chunk.MustGeometry(extents, chunkDims)), dims...)
	}
	addr := make([]int, len(order))
	c.Store().NonNull(func(a []int, v float64) bool {
		for i, d := range order {
			addr[i] = a[d]
		}
		out.SetLeaf(addr, v)
		return true
	})
	for _, b := range c.Bindings() {
		if err := out.AddBinding(b); err != nil {
			t.Fatal(err)
		}
	}
	out.SetRules(c.Rules())
	return out
}

// TestFusedSlabWalkMatchesAlgebra: the slab walk jumps from a digit
// block without a relocation row straight to the next block with one,
// and the served, fused answers stay those of algebra.Execute over the
// same cells — on the validity-window geometry, whose period digit is
// the fastest and whose slabs are single cells, and on a layout whose
// varying dimension is not the slowest (Period first), whose varying
// digits repeat within a chunk. The report shapes run under every
// semantics and mode; every one fuses, and some skip slabs.
func TestFusedSlabWalkMatchesAlgebra(t *testing.T) {
	wf := tinyWorkforce(t, nil)
	vw := tinyWorkforce(t, func(cfg *workload.WorkforceConfig) {
		cfg.FlatMonths = true
		cfg.ChunkDims = []int{16, 12, 1, 1, 1, 1, 1}
	})
	di, pi := wf.DimIndex(workload.DimDepartment), wf.DimIndex(workload.DimPeriod)
	order := []int{pi, di}
	for d := 0; d < wf.NumDims(); d++ {
		if d != di && d != pi {
			order = append(order, d)
		}
	}
	layouts := []struct {
		name          string
		served, input *cube.Cube
	}{
		{"validity-window", vw, relaidCopy(t, vw, []int{0, 1, 2, 3, 4, 5, 6}, nil)},
		{"period-slowest", relaidCopy(t, wf, order, []int{5, 7, 2, 1, 1, 1, 1}), relaidCopy(t, wf, order, nil)},
	}
	sems := []perspective.Semantics{perspective.Static, perspective.Forward, perspective.Backward,
		perspective.ExtendedForward, perspective.ExtendedBackward}
	for _, l := range layouts {
		served, ref := NewEvaluator(l.served), NewEvaluator(l.input)
		skipped := 0
		for _, sem := range sems {
			for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
				for name, src := range fusedReports(t, l.served, sem, mode) {
					if name == "changes" {
						continue // a split schema lowers to the algebra path over a map
					}
					label := fmt.Sprintf("%s %s %v %v", l.name, name, sem, mode)
					q, err := Parse(src)
					if err != nil {
						t.Fatal(err)
					}
					tr := trace.New(0)
					root := tr.Start(trace.SpanRef{}, "eval")
					got, _, ps, err := served.RunQueryProjectedWith(RunContext{Ctx: trace.WithSpan(trace.NewContext(context.Background(), tr), root)}, q)
					root.End()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if ps == nil || !ps.Fused {
						t.Fatalf("%s: not fused: %+v", label, ps)
					}
					want, err := ref.RunQueryWith(RunContext{}, q)
					if err != nil {
						t.Fatalf("%s: algebra: %v", label, err)
					}
					closeGrid(t, label+": fused vs algebra\n"+src, got, want)
					for _, sp := range tr.Spans() {
						if n, ok := sp.Attr("slabs_skipped"); ok && sp.Name == "scan" {
							skipped += int(n)
						}
					}
				}
			}
		}
		if skipped == 0 {
			t.Fatalf("%s: no scan skipped a slab; the walk's jumps went untested", l.name)
		}
	}
}
