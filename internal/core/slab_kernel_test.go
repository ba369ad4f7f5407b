package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"whatifolap/internal/algebra"
	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/scenario"
	"whatifolap/internal/trace"
	"whatifolap/internal/workload"
)

// perCellScan is the relocation scanInto ran before the slab kernel,
// kept verbatim as the kernel's test oracle: every non-null cell of
// every scheduled chunk is joined back to a full address, looked up in
// the target table and written to the overlay on its own. It shares
// nothing with the kernel but the plan — no slabs, no strides, no bulk
// writes — so any divergence is a kernel bug.
func perCellScan(e *Engine, schedule []int, target *RelocTable, overlay *chunk.Overlay) (scanned, relocated int) {
	g := e.store.Geometry()
	ccoord := make([]int, g.NumDims())
	addr := make([]int, g.NumDims())
	out := make([]int, g.NumDims())
	relocate := func(off int, v float64) bool {
		scanned++
		g.Join(ccoord, off, addr)
		row := target.Row(addr[e.vi])
		if row == nil {
			return true
		}
		dst := row[addr[e.pi]]
		if dst < 0 {
			return true
		}
		copy(out, addr)
		out[e.vi] = dst
		overlay.Set(out, v)
		relocated++
		return true
	}
	for _, id := range schedule {
		ch := e.store.ReadChunk(id)
		if ch == nil {
			continue
		}
		g.CoordOf(id, ccoord)
		ch.ForEach(relocate)
	}
	return scanned, relocated
}

// dumpBits materializes a store as address → value bit pattern: the
// kernel copies values verbatim, so -0 must not pass for 0.
func dumpBits(s cube.Store) map[string]uint64 {
	m := make(map[string]uint64)
	s.NonNull(func(addr []int, v float64) bool {
		m[fmt.Sprint(addr)] = math.Float64bits(v)
		return true
	})
	return m
}

// assertKernelMatchesOracle scans the plan with the slab kernel and
// with the per-cell oracle — oracle being an engine over a plain
// chunk store holding the same logical cells as e reads — and requires
// the same overlay cell for cell, the same scanned and relocated
// counts, an overlay cell count that matches its content, and slab
// counters that add up.
func assertKernelMatchesOracle(t *testing.T, label string, e, oracle *Engine, p *PhysicalPlan, og *chunk.Geometry) scanTally {
	t.Helper()
	want := chunk.NewOverlay(og)
	scanned, relocated := perCellScan(oracle, p.Schedule, p.Target, want)
	got := chunk.NewOverlay(og)
	tally, err := e.scanInto(nil, p, got, nil, nil, nil, trace.SpanRef{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if tally.cellsScanned != scanned || tally.cellsRelocated != relocated {
		t.Fatalf("%s: kernel scanned %d, relocated %d; per-cell oracle %d, %d",
			label, tally.cellsScanned, tally.cellsRelocated, scanned, relocated)
	}
	wb, gb := dumpBits(want), dumpBits(got)
	if len(wb) != len(gb) {
		t.Fatalf("%s: kernel overlay holds %d cells, oracle %d", label, len(gb), len(wb))
	}
	for k, w := range wb {
		if g, ok := gb[k]; !ok || g != w {
			t.Fatalf("%s: cell %s = %#x (present %v), oracle %#x", label, k, g, ok, w)
		}
	}
	if got.Len() != len(gb) || got.NumChunks() != want.NumChunks() {
		t.Fatalf("%s: overlay reports %d cells in %d chunks; holds %d cells, oracle %d chunks",
			label, got.Len(), got.NumChunks(), len(gb), want.NumChunks())
	}
	if tally.slabsSkipped > tally.slabs || (relocated > 0 && tally.slabs == tally.slabsSkipped) {
		t.Fatalf("%s: %d slabs, %d skipped, %d cells relocated", label, tally.slabs, tally.slabsSkipped, relocated)
	}
	if slabs, skipped := perSlabCounts(t, e, p); tally.slabs != slabs || tally.slabsSkipped != skipped {
		t.Fatalf("%s: kernel counted %d slabs, %d skipped; one decision per slab counts %d, %d",
			label, tally.slabs, tally.slabsSkipped, slabs, skipped)
	}
	return tally
}

// perSlabCounts counts the slab decisions of a scan of p's schedule one
// slab at a time — a slab per aligned block of the smaller of the
// varying and parameter strides that a span of the chunk as read enters,
// skipped when its varying ordinal has no relocation row or its row no
// destination at its parameter leaf — without the kernel's jumps over
// digit blocks that have no row.
func perSlabCounts(t *testing.T, e *Engine, p *PhysicalPlan) (slabs, skipped int) {
	t.Helper()
	g := e.store.Geometry()
	dimV, dimP := g.ChunkDims[e.vi], g.ChunkDims[e.pi]
	strideV, strideP := g.OffsetStride(e.vi), g.OffsetStride(e.pi)
	slab := min(strideV, strideP)
	scratch := make([]float64, slab)
	for i := range scratch {
		scratch[i] = math.NaN()
	}
	lease := e.store.Lease()
	defer lease.Release()
	r := &chunkReader{e: e, lease: &lease}
	defer r.release()
	ccoord := make([]int, g.NumDims())
	for _, id := range p.Schedule {
		ch, err := r.read(id)
		if err != nil {
			t.Fatal(err)
		}
		if ch = r.resolve(id, ch); ch == nil {
			continue
		}
		g.CoordOf(id, ccoord)
		ch.ForEachSpan(slab, scratch, func(start, n int, _ []float64, _ float64) {
			for off, end := start, start+n; off < end; off = min(off-off%slab+slab, end) {
				slabs++
				row := p.Target.Row(ccoord[e.vi]*dimV + off/strideV%dimV)
				if pOrd := ccoord[e.pi]*dimP + off/strideP%dimP; row == nil || pOrd >= len(row) || row[pOrd] < 0 {
					skipped++
				}
			}
		})
	}
	return slabs, skipped
}

// The source representations the kernel's feeders cover.
var sourceReps = []string{"dense", "sparse", "runs", "mixed"}

// setRepresentation rewrites every chunk of the store in the named
// representation ("mixed" cycles dense, sparse, runs by chunk), forcing
// it regardless of occupancy or run ratio.
func setRepresentation(st *chunk.Store, rep string) {
	for i, id := range st.ChunkIDs() {
		src := st.PeekChunk(id)
		c := chunk.NewDense(src.Cap())
		src.ForEach(func(off int, v float64) bool { c.Set(off, v); return true })
		r := rep
		if rep == "mixed" {
			r = sourceReps[i%3]
		}
		switch r {
		case "sparse":
			c.ForceSparse()
		case "runs":
			c.ForceRuns()
		}
		st.PutChunk(id, c)
	}
}

// extendedGeometry is the overlay geometry execute builds for a
// positive scenario: the store's, with the varying extent grown to n.
func extendedGeometry(t *testing.T, g *chunk.Geometry, vi, n int) *chunk.Geometry {
	t.Helper()
	ext := append([]int(nil), g.Extents...)
	ext[vi] = max(ext[vi], n)
	og, err := chunk.NewGeometry(ext, g.ChunkDims)
	if err != nil {
		t.Fatal(err)
	}
	return og
}

// kernelCase is one fixture cube under one chunking, with the plans to
// check on it.
type kernelCase struct {
	name    string
	build   func() *cube.Cube
	varying string
	perspQ  func(sem perspective.Semantics, mode perspective.Mode) []PerspectiveQuery
	changes func(c *cube.Cube) ChangesQuery
}

func kernelCases(t *testing.T) []kernelCase {
	t.Helper()
	var cases []kernelCase
	// Paper warehouse, (Organization, Location, Time, Measures): the
	// default chunking; a chunking that leaves a partial last chunk on
	// every dimension; oversized edges, clamped to the extents (one
	// chunk); single-cell chunks (slab length 1, every move crosses
	// chunks).
	for _, cd := range [][]int{nil, {4, 3, 5, 3}, {100, 100, 100, 100}, {1, 1, 1, 1}} {
		cd := cd
		cases = append(cases, kernelCase{
			name:    fmt.Sprintf("paper%v", cd),
			build:   func() *cube.Cube { return paperdata.ChunkedWarehouse(cd) },
			varying: "Organization",
			perspQ: func(sem perspective.Semantics, mode perspective.Mode) []PerspectiveQuery {
				ps := []int{paperdata.Feb, paperdata.Apr}
				return []PerspectiveQuery{
					{Members: []string{"Joe", "Lisa"}, Perspectives: ps, Sem: sem, Mode: mode},
					{Perspectives: ps, Sem: sem, Mode: mode},
				}
			},
			changes: func(*cube.Cube) ChangesQuery {
				return ChangesQuery{Changes: []algebra.Change{
					{Member: "Lisa", OldParent: "FTE", NewParent: "PTE", T: paperdata.Apr},
					{Member: "Tom", OldParent: "PTE", NewParent: "Contractor", T: paperdata.Mar},
				}}
			},
		})
	}
	// Workforce tiny, (Department, Period, Account, Scenario, …): the
	// default chunking; employees and months both cut mid-chunk; the
	// parameter dimension whole inside the chunk.
	for _, cd := range [][]int{nil, {7, 5, 3, 2}, {16, 12, 1, 1}} {
		cd := cd
		cfg := workload.ConfigTiny()
		cfg.ChunkDims = cd
		w, err := workload.NewWorkforce(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, kernelCase{
			name: fmt.Sprintf("workforce%v", cd),
			build: func() *cube.Cube {
				w, err := workload.NewWorkforce(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return w.Cube
			},
			varying: workload.DimDepartment,
			perspQ: func(sem perspective.Semantics, mode perspective.Mode) []PerspectiveQuery {
				return []PerspectiveQuery{{Members: w.Changing, Perspectives: []int{0, 3, 6, 9}, Sem: sem, Mode: mode}}
			},
			changes: func(c *cube.Cube) ChangesQuery {
				// Move the first two employees to the last department.
				d := c.Dim(c.DimIndex(workload.DimDepartment))
				depts := d.Member(d.Root()).Children
				to := d.Path(depts[len(depts)-1])
				var chs []algebra.Change
				for i, emp := range d.Member(depts[0]).Children[:2] {
					chs = append(chs, algebra.Change{
						Member: d.Member(emp).Name, OldParent: d.Path(depts[0]), NewParent: to, T: 2 + 5*i,
					})
				}
				return ChangesQuery{Changes: chs}
			},
		})
	}
	return cases
}

// TestSlabKernelMatchesPerCell is the kernel's fixture equivalence: on
// the paper warehouse and the tiny workforce cube, under chunkings that
// cover partial last chunks, edges clamped to short extents and
// single-cell chunks, with the source chunks dense, forced sparse,
// forced run-encoded and mixed, every semantics × mode and a WITH
// CHANGES plan (whose overlay geometry is wider than the store's)
// relocate exactly what the per-cell oracle relocates.
func TestSlabKernelMatchesPerCell(t *testing.T) {
	modes := []perspective.Mode{perspective.NonVisual, perspective.Visual}
	for _, kc := range kernelCases(t) {
		plain := kc.build()
		oracle, err := New(plain, kc.varying)
		if err != nil {
			t.Fatal(err)
		}
		setRepresentation(oracle.store, "dense")
		for _, rep := range sourceReps {
			c := kc.build()
			e, err := New(c, kc.varying)
			if err != nil {
				t.Fatal(err)
			}
			setRepresentation(e.store, rep)
			relocated := 0
			for _, sem := range allSemantics {
				for _, mode := range modes {
					for qi, q := range kc.perspQ(sem, mode) {
						label := fmt.Sprintf("%s/%s/%v/%v/q%d", kc.name, rep, sem, mode, qi)
						p, err := e.PlanPerspective(q)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						tally := assertKernelMatchesOracle(t, label, e, oracle, p, e.store.Geometry())
						relocated += p.Stats.SourceInstances
						// A dense chunk is decided slab by slab, every slab once.
						g := e.store.Geometry()
						perChunk := g.ChunkCap() / min(g.OffsetStride(e.vi), g.OffsetStride(e.pi))
						if rep == "dense" && tally.slabs != len(p.Schedule)*perChunk {
							t.Fatalf("%s: %d slab decisions over %d dense chunks of %d slabs", label, tally.slabs, len(p.Schedule), perChunk)
						}
					}
				}
			}
			if relocated == 0 {
				t.Fatalf("%s/%s: no plan had a source row; the case is vacuous", kc.name, rep)
			}
			for _, mode := range modes {
				q := kc.changes(c)
				q.Mode = mode
				label := fmt.Sprintf("%s/%s/changes/%v", kc.name, rep, mode)
				split, err := e.splitOf(q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				p, err := e.planChanges(nil, q, split, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				g := e.store.Geometry()
				og := extendedGeometry(t, g, e.vi, split.Dim.NumLeaves())
				if og.Extents[e.vi] == g.Extents[e.vi] {
					t.Fatalf("%s: changes did not extend the varying dimension", label)
				}
				assertKernelMatchesOracle(t, label, e, oracle, p, og)
			}
		}
	}
}

// randomKernelCase draws a small cube and a relocation table for the
// quick check: 2–4 dimensions of extent 1–7 under chunk edges 1–4
// (edges above the extent clamp; extents that are no multiple of the
// edge leave a partial last chunk), any two distinct dimensions as
// varying and parameter — so the varying stride may be above or below
// the parameter stride and either may be the last dimension (slab
// length 1) — cells of random occupancy in random representations, an
// overlay geometry that may extend the varying dimension, and a target
// table whose rows are absent, all -1, the identity, or arbitrary
// cross-chunk moves. Destinations are injective per parameter leaf, as
// the planner's are: the order in which colliding writes land is not
// part of the kernel's contract.
func randomKernelCase(rng *rand.Rand) (e *Engine, p *PhysicalPlan, og *chunk.Geometry) {
	nd := 2 + rng.Intn(3)
	ext, cd := make([]int, nd), make([]int, nd)
	for i := range ext {
		ext[i], cd[i] = 1+rng.Intn(7), 1+rng.Intn(4)
	}
	g := chunk.MustGeometry(ext, cd)
	vi := rng.Intn(nd)
	pi := (vi + 1 + rng.Intn(nd-1)) % nd
	st := chunk.NewStore(g)
	fill := []float64{0.2, 0.6, 1}[rng.Intn(3)]
	addr := make([]int, nd)
	var walk func(d int)
	walk = func(d int) {
		if d == nd {
			if rng.Float64() < fill {
				v := float64(rng.Intn(4)) // few values: real runs
				if rng.Intn(8) == 0 {
					v = math.Copysign(0, -1)
				}
				st.Set(addr, v)
			}
			return
		}
		for addr[d] = 0; addr[d] < ext[d]; addr[d]++ {
			walk(d + 1)
		}
	}
	walk(0)
	setRepresentation(st, sourceReps[rng.Intn(len(sourceReps))])

	oext := append([]int(nil), ext...)
	oext[vi] += rng.Intn(4)
	og = chunk.MustGeometry(oext, g.ChunkDims)

	// One injective source→destination map per parameter leaf.
	target := newRelocTable(g, vi, ext[pi], 0)
	kind := make([]int, ext[vi])
	for src := range kind {
		kind[src] = rng.Intn(4) // 0 absent, 1 all -1, 2 identity, 3 moves
		if kind[src] != 0 {
			target.add(src)
		}
	}
	for leaf := 0; leaf < ext[pi]; leaf++ {
		taken := make([]bool, oext[vi])
		for src, k := range kind {
			if k == 2 {
				taken[src] = true
			}
		}
		free := rng.Perm(oext[vi])
		for src, k := range kind {
			switch k {
			case 1:
				target.Row(src)[leaf] = -1
			case 2:
				target.Row(src)[leaf] = src
			case 3:
				target.Row(src)[leaf] = -1
				for len(free) > 0 && rng.Intn(5) > 0 {
					dst := free[0]
					free = free[1:]
					if !taken[dst] {
						taken[dst] = true
						target.Row(src)[leaf] = dst
						break
					}
				}
			}
		}
	}
	e = &Engine{store: st, vi: vi, pi: pi}
	return e, &PhysicalPlan{Target: target, Schedule: st.ChunkIDs()}, og
}

// TestSlabKernelQuickRandomGeometry is the property form: over seeded
// random geometries, representations and target tables, the kernel and
// the per-cell oracle agree.
func TestSlabKernelQuickRandomGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	belowP, aboveP, slab1, extended := 0, 0, 0, 0
	for i := 0; i < 600; i++ {
		e, p, og := randomKernelCase(rng)
		g := e.store.Geometry()
		label := fmt.Sprintf("case %d: extents %v chunks %v vi=%d pi=%d overlay %v", i, g.Extents, g.ChunkDims, e.vi, e.pi, og.Extents)
		assertKernelMatchesOracle(t, label, e, e, p, og)
		sv, sp := g.OffsetStride(e.vi), g.OffsetStride(e.pi)
		if sv < sp {
			belowP++
		} else {
			aboveP++
		}
		if min(sv, sp) == 1 {
			slab1++
		}
		if og.Extents[e.vi] > g.Extents[e.vi] {
			extended++
		}
	}
	if belowP < 50 || aboveP < 50 || slab1 < 50 || extended < 50 {
		t.Fatalf("coverage: strideV<strideP %d, ≥ %d, slab length 1 %d, extended overlay %d of 600", belowP, aboveP, slab1, extended)
	}
}

// cellRef addresses a cell of c by member paths, the form scenario
// edits take.
func cellRef(c *cube.Cube, addr []int) map[string]string {
	ref := make(map[string]string, len(addr))
	for i, o := range addr {
		d := c.Dim(i)
		ref[d.Name()] = d.Path(d.Leaf(o).ID)
	}
	return ref
}

// TestSlabKernelScenarioChains checks the chain feeder against
// Scenario.Materialize(): over the paper warehouse (whose base leaves
// most chunk positions unmaterialized, so edits land in layer-only
// chunks) with the base dense, sparse, run-encoded and mixed, chains of
// depth 0 to 3 — writes into held and into empty cells, tombstones over
// base cells and over an older layer's write, a newer layer overwriting
// an older one, a tombstoned cell written again — scan to exactly what
// the per-cell oracle relocates from the materialized cube.
func TestSlabKernelScenarioChains(t *testing.T) {
	base := paperdata.ChunkedWarehouse(nil)
	var held [][]int
	base.Store().NonNull(func(addr []int, v float64) bool {
		held = append(held, append([]int(nil), addr...))
		return true
	})
	rng := rand.New(rand.NewSource(3))
	anyCell := func() []int {
		addr := make([]int, base.NumDims())
		for i := range addr {
			addr[i] = rng.Intn(base.Dim(i).NumLeaves())
		}
		return addr
	}
	// Layer k+1 revisits cells layer k touched, so newer layers shadow
	// older ones both ways (write over tombstone, tombstone over write).
	var touched [][]int
	batch := func(c *cube.Cube) []scenario.Edit {
		var edits []scenario.Edit
		for i := 0; i < 30; i++ {
			var addr []int
			switch {
			case len(touched) > 0 && rng.Intn(3) == 0:
				addr = touched[rng.Intn(len(touched))]
			case rng.Intn(2) == 0:
				addr = held[rng.Intn(len(held))]
			default:
				addr = anyCell()
			}
			touched = append(touched, addr)
			if rng.Intn(3) == 0 {
				edits = append(edits, scenario.Edit{Op: scenario.OpDelete, Cell: cellRef(c, addr)})
			} else {
				edits = append(edits, scenario.Edit{Op: scenario.OpSet, Cell: cellRef(c, addr), Value: float64(100 + rng.Intn(50))})
			}
		}
		return edits
	}
	for _, rep := range sourceReps {
		c := paperdata.ChunkedWarehouse(nil)
		setRepresentation(c.Store().(*chunk.Store), rep)
		s, err := scenario.NewLocal("chain-"+rep, c)
		if err != nil {
			t.Fatal(err)
		}
		touched = nil
		for depth := 0; depth <= 3; depth++ {
			if depth > 0 {
				if _, err := s.Apply(batch(c)); err != nil {
					t.Fatal(err)
				}
			}
			view, _, err := s.View()
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(view, "Organization")
			if err != nil {
				t.Fatal(err)
			}
			if depth > 0 && (e.chain == nil || e.chain.NumLayers() != depth) {
				t.Fatalf("%s depth %d: engine is not reading a %d-layer chain", rep, depth, depth)
			}
			flat, err := s.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := New(flat, "Organization")
			if err != nil {
				t.Fatal(err)
			}
			layerOnly := 0
			for _, id := range e.sourceChunkIDs() {
				if e.store.PeekChunk(id) == nil {
					layerOnly++
				}
			}
			if depth > 0 && layerOnly == 0 {
				t.Fatalf("%s depth %d: no layer-only chunk; the base == nil path is not exercised", rep, depth)
			}
			for _, sem := range allSemantics {
				q := PerspectiveQuery{Perspectives: []int{paperdata.Feb, paperdata.Apr}, Sem: sem}
				label := fmt.Sprintf("%s/depth %d/%v", rep, depth, sem)
				p, err := e.PlanPerspective(q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				// The oracle scans the materialized store, which drops
				// chunks the chain empties: its schedule is the plan's
				// minus chunk IDs it does not hold, which ReadChunk skips.
				assertKernelMatchesOracle(t, label, e, oracle, p, e.store.Geometry())
			}
		}
	}
}

// TestSlabKernelScanAllocs is the kernel's allocation pin, standing in
// for a timing assert on this host. Scanning into a warm destination
// allocates the same small constant whatever the feeder — dense,
// sparse, run-encoded or a scenario chain — and however many slabs and
// cells it moves: nothing per slab, nothing per cell. Scanning into a
// fresh destination allocates per destination chunk, not per cell.
func TestSlabKernelScanAllocs(t *testing.T) {
	cfg := workload.ConfigTiny()
	w, err := workload.NewWorkforce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := PerspectiveQuery{Members: w.Changing, Perspectives: []int{0, 3, 6, 9}, Sem: perspective.Forward}
	for _, feeder := range []string{"dense", "sparse", "runs", "chain"} {
		w, err := workload.NewWorkforce(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := w.Cube
		if feeder == "chain" {
			s, err := scenario.NewLocal("allocs", c)
			if err != nil {
				t.Fatal(err)
			}
			var edits []scenario.Edit
			c.Store().NonNull(func(addr []int, v float64) bool {
				if len(edits) < 400 { // a cell in most chunks, so most chunks resolve
					edits = append(edits, scenario.Edit{Op: scenario.OpSet, Cell: cellRef(c, addr), Value: v + 1})
				}
				return len(edits) < 400
			})
			if _, err := s.Apply(edits); err != nil {
				t.Fatal(err)
			}
			if c, _, err = s.View(); err != nil {
				t.Fatal(err)
			}
		} else {
			setRepresentation(c.Store().(*chunk.Store), feeder)
		}
		e, err := New(c, workload.DimDepartment)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.PlanPerspective(q)
		if err != nil {
			t.Fatal(err)
		}
		scan := func(ov *chunk.Overlay) scanTally {
			tally, err := e.scanInto(nil, p, ov, nil, nil, nil, trace.SpanRef{})
			if err != nil {
				t.Fatal(err)
			}
			return tally
		}
		warm := chunk.NewOverlay(e.store.Geometry())
		tally := scan(warm)
		if tally.cellsRelocated < 500 || tally.slabs-tally.slabsSkipped < 100 {
			t.Fatalf("%s: %d cells in %d slabs relocated; too few to pin anything", feeder, tally.cellsRelocated, tally.slabs-tally.slabsSkipped)
		}
		// The constant: the kernel, its callback and slab buffer, the
		// chunk coordinate, the chain's scratch chunk.
		if allocs := testing.AllocsPerRun(10, func() { scan(warm) }); allocs > 8 {
			t.Fatalf("%s: a warm scan of %d cells in %d slabs allocates %.0f times, want a constant ≤ 8",
				feeder, tally.cellsRelocated, tally.slabs, allocs)
		}
		// Fresh destination: chunk structs, their cell slices as they
		// grow (doubling: ~log₂ of the promotion threshold), one dense
		// array on promotion, the overlay's map buckets.
		perChunk := testing.AllocsPerRun(10, func() { scan(chunk.NewOverlay(e.store.Geometry())) }) / float64(warm.NumChunks())
		if perChunk > 24 || perChunk*float64(warm.NumChunks()) > float64(tally.cellsRelocated)/4 {
			t.Fatalf("%s: a fresh scan allocates %.1f times per destination chunk (%d chunks, %d cells), want O(chunks)",
				feeder, perChunk, warm.NumChunks(), tally.cellsRelocated)
		}
	}
}
