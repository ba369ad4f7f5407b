package core

import (
	"math"
	"testing"

	"whatifolap/internal/algebra"
	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/segment"
	"whatifolap/internal/simdisk"
)

func newEngine(t testing.TB) *Engine {
	t.Helper()
	c := paperdata.ChunkedWarehouse(nil)
	e, err := New(c, "Organization")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// assertCubesAgree compares the engine view against a reference cube
// produced by the algebra operators, over every leaf cell and a sample
// of aggregates, in both modes.
func assertCubesAgree(t *testing.T, v *View, ref *cube.Cube, refInput *cube.Cube, mode perspective.Mode) {
	t.Helper()
	res := v.Result()
	// Same leaf cells: reference is authoritative.
	nCells := 0
	ref.Store().NonNull(func(addr []int, want float64) bool {
		nCells++
		ids := make([]dimension.MemberID, len(addr))
		for i, o := range addr {
			ids[i] = ref.Dim(i).Leaf(o).ID
		}
		// Translate into the view's dimension objects via paths.
		vids := make([]dimension.MemberID, len(addr))
		for i := range ids {
			p := ref.Dim(i).Path(ids[i])
			id, err := res.Dim(i).Lookup(p)
			if err != nil {
				t.Fatalf("view lacks member %s: %v", p, err)
			}
			vids[i] = id
		}
		got, err := v.Cell(vids)
		if err != nil {
			t.Fatalf("view cell %v: %v", addr, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("cell %v: view %v, reference %v", addr, got, want)
		}
		return true
	})
	if nCells == 0 {
		t.Fatal("reference cube empty; test is vacuous")
	}
	// View has no extra non-null cells.
	res.Store().NonNull(func(addr []int, got float64) bool {
		ids := make([]dimension.MemberID, len(addr))
		for i, o := range addr {
			ids[i] = res.Dim(i).Leaf(o).ID
		}
		rids := make([]dimension.MemberID, len(addr))
		for i := range ids {
			p := res.Dim(i).Path(ids[i])
			id, err := ref.Dim(i).Lookup(p)
			if err != nil {
				t.Fatalf("reference lacks member %s", p)
			}
			rids[i] = id
		}
		if want := ref.Value(rids); cube.IsNull(want) {
			t.Fatalf("view has spurious cell %v = %v", addr, got)
		}
		return true
	})
	// Aggregates for a sample of non-leaf tuples.
	for _, refs := range [][]string{
		{"FTE", "NY", "Qtr1", "Salary"},
		{"PTE", "NY", "Qtr2", "Salary"},
		{"Contractor", "East", "Time", "Salary"},
		{"Organization", "NY", "Qtr1", "Compensation"},
	} {
		vids := make([]dimension.MemberID, len(refs))
		rids := make([]dimension.MemberID, len(refs))
		for i, r := range refs {
			vids[i] = res.Dim(i).MustLookup(r)
			rids[i] = ref.Dim(i).MustLookup(r)
		}
		got, err := v.Cell(vids)
		if err != nil {
			t.Fatal(err)
		}
		want, err := algebra.CellValue(refInput, ref, rids, mode)
		if err != nil {
			t.Fatal(err)
		}
		if (cube.IsNull(got) != cube.IsNull(want)) || (!cube.IsNull(got) && math.Abs(got-want) > 1e-9) {
			t.Fatalf("aggregate %v: view %v, reference %v (mode %v)", refs, got, want, mode)
		}
	}
}

func TestEngineMatchesAlgebraForward(t *testing.T) {
	e := newEngine(t)
	memRef := paperdata.Warehouse()
	for _, mode := range []perspective.Mode{perspective.Visual, perspective.NonVisual} {
		v, err := e.ExecPerspective(PerspectiveQuery{
			Members:      []string{"Joe"},
			Perspectives: []int{paperdata.Feb, paperdata.Apr},
			Sem:          perspective.Forward,
			Mode:         mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := algebra.ApplyPerspectives(memRef, "Organization", perspective.Forward,
			[]int{paperdata.Feb, paperdata.Apr})
		if err != nil {
			t.Fatal(err)
		}
		assertCubesAgree(t, v, ref, memRef, mode)
		if v.Stats.SourceInstances == 0 || v.Stats.ChunksRead == 0 {
			t.Fatalf("stats look empty: %+v", v.Stats)
		}
	}
}

func TestEngineMatchesAlgebraAllSemantics(t *testing.T) {
	e := newEngine(t)
	memRef := paperdata.Warehouse()
	for _, sem := range []perspective.Semantics{perspective.Static, perspective.Forward,
		perspective.ExtendedForward, perspective.Backward, perspective.ExtendedBackward} {
		for _, ps := range [][]int{{paperdata.Jan}, {paperdata.Mar}, {paperdata.Feb, paperdata.Jun}} {
			v, err := e.ExecPerspective(PerspectiveQuery{
				Members:      []string{"Joe"},
				Perspectives: ps,
				Sem:          sem,
				Mode:         perspective.Visual,
			})
			if err != nil {
				t.Fatalf("%v %v: %v", sem, ps, err)
			}
			ref, err := algebra.ApplyPerspectives(memRef, "Organization", sem, ps)
			if err != nil {
				t.Fatal(err)
			}
			assertCubesAgree(t, v, ref, memRef, perspective.Visual)
		}
	}
}

func TestEngineFig4Values(t *testing.T) {
	e := newEngine(t)
	v, err := e.ExecPerspective(PerspectiveQuery{
		Members:      []string{"Joe"},
		Perspectives: []int{paperdata.Feb, paperdata.Apr},
		Sem:          perspective.Forward,
		Mode:         perspective.Visual,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.CellRefs("PTE/Joe", "NY", "Mar", "Salary")
	if err != nil {
		t.Fatal(err)
	}
	if got != 30 {
		t.Fatalf("(PTE/Joe, Mar) = %v, want 30 (inherited)", got)
	}
	q1, err := v.CellRefs("PTE/Joe", "NY", "Qtr1", "Salary")
	if err != nil {
		t.Fatal(err)
	}
	if q1 != 40 {
		t.Fatalf("visual Q1(PTE/Joe) = %v, want 40", q1)
	}
}

func TestSimulateMultiMDXMatchesDirectStatic(t *testing.T) {
	e := newEngine(t)
	ps := []int{paperdata.Jan, paperdata.Feb, paperdata.Apr}
	direct, err := e.ExecPerspective(PerspectiveQuery{
		Members: []string{"Joe"}, Perspectives: ps,
		Sem: perspective.Static, Mode: perspective.Visual,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := e.SimulateMultiMDX([]string{"Joe"}, ps, perspective.Visual)
	if err != nil {
		t.Fatal(err)
	}
	// Cell-for-cell agreement.
	n := 0
	direct.Result().Store().NonNull(func(addr []int, want float64) bool {
		n++
		if got := sim.Result().Leaf(addr); math.IsNaN(got) || math.Abs(got-want) > 1e-9 {
			t.Fatalf("cell %v: sim %v, direct %v", addr, got, want)
		}
		return true
	})
	if n == 0 {
		t.Fatal("empty comparison")
	}
	if sim.Result().Store().Len() != direct.Result().Store().Len() {
		t.Fatalf("cell counts differ: sim %d, direct %d",
			sim.Result().Store().Len(), direct.Result().Store().Len())
	}
	// The simulation does at least as much I/O and strictly more total
	// work (post-merge copies count) — the Fig. 11 gap.
	if sim.Stats.ChunksRead < direct.Stats.ChunksRead {
		t.Fatalf("simulation should not read fewer chunks: sim %d, direct %d",
			sim.Stats.ChunksRead, direct.Stats.ChunksRead)
	}
	if sim.Stats.CellsRelocated <= direct.Stats.CellsRelocated {
		t.Fatalf("simulation should do more cell work: sim %d, direct %d",
			sim.Stats.CellsRelocated, direct.Stats.CellsRelocated)
	}
}

func TestEngineChangesMatchesAlgebraSplit(t *testing.T) {
	e := newEngine(t)
	memRef := paperdata.Warehouse()
	changes := []algebra.Change{
		{Member: "Lisa", OldParent: "FTE", NewParent: "PTE", T: paperdata.Apr},
		{Member: "Tom", OldParent: "PTE", NewParent: "Contractor", T: paperdata.Mar},
	}
	for _, mode := range []perspective.Mode{perspective.Visual, perspective.NonVisual} {
		v, err := e.ExecChanges(ChangesQuery{Changes: changes, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := algebra.Split(memRef, "Organization", changes)
		if err != nil {
			t.Fatal(err)
		}
		assertCubesAgree(t, v, ref, memRef, mode)
	}
}

func TestEngineChangesNewInstanceCells(t *testing.T) {
	e := newEngine(t)
	v, err := e.ExecChanges(ChangesQuery{
		Changes: []algebra.Change{{Member: "Lisa", OldParent: "FTE", NewParent: "PTE", T: paperdata.Apr}},
		Mode:    perspective.Visual,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := v.CellRefs("PTE/Lisa", "NY", "May", "Salary"); err != nil || got != 10 {
		t.Fatalf("(PTE/Lisa, May) = %v, %v; want 10", got, err)
	}
	if got, err := v.CellRefs("FTE/Lisa", "NY", "May", "Salary"); err != nil || !cube.IsNull(got) {
		t.Fatalf("(FTE/Lisa, May) = %v, %v; want ⊥", got, err)
	}
	// Unaffected rows pass through the ordinal remap.
	if got, err := v.CellRefs("PTE/Tom", "NY", "May", "Salary"); err != nil || got != 10 {
		t.Fatalf("(PTE/Tom, May) = %v, %v; want 10", got, err)
	}
	// Visual aggregate over the extended hierarchy.
	if got, err := v.CellRefs("PTE", "NY", "Qtr2", "Salary"); err != nil || got != 60 {
		t.Fatalf("visual Q2(PTE) = %v, %v; want 60", got, err)
	}
}

func TestEngineErrors(t *testing.T) {
	mem := paperdata.Warehouse() // MemStore-backed
	if _, err := New(mem, "Organization"); err == nil {
		t.Fatal("engine over non-chunked cube should fail")
	}
	c := paperdata.ChunkedWarehouse(nil)
	if _, err := New(c, "Location"); err == nil {
		t.Fatal("engine over unbound dimension should fail")
	}
	e := newEngine(t)
	if _, err := e.ExecPerspective(PerspectiveQuery{Members: []string{"Nobody"}, Perspectives: []int{0}}); err == nil {
		t.Fatal("unknown member should fail")
	}
	if _, err := e.ExecPerspective(PerspectiveQuery{Members: []string{"Joe"}, Perspectives: nil}); err == nil {
		t.Fatal("empty perspectives should fail")
	}
	if _, err := e.ExecChanges(ChangesQuery{}); err == nil {
		t.Fatal("empty changes should fail")
	}
	if _, err := e.SimulateMultiMDX([]string{"Joe"}, nil, perspective.Visual); err == nil {
		t.Fatal("empty perspective simulation should fail")
	}
}

func TestEngineDefaultScopeIsVaryingMembers(t *testing.T) {
	e := newEngine(t)
	v, err := e.ExecPerspective(PerspectiveQuery{
		Perspectives: []int{paperdata.Jan},
		Sem:          perspective.Static,
		Mode:         perspective.NonVisual,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Stats.MembersInScope != 1 { // only Joe varies in the paper cube
		t.Fatalf("MembersInScope = %d, want 1", v.Stats.MembersInScope)
	}
}

func TestReadOrderPoliciesAgreeOnValues(t *testing.T) {
	memRef := paperdata.Warehouse()
	ref, err := algebra.ApplyPerspectives(memRef, "Organization", perspective.Forward,
		[]int{paperdata.Feb, paperdata.Apr})
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []ReadOrder{OrderPebbling, OrderVaryingFirst, OrderVaryingLast, OrderCanonical} {
		e := newEngine(t)
		e.SetReadOrder(order)
		v, err := e.ExecPerspective(PerspectiveQuery{
			Members:      []string{"Joe"},
			Perspectives: []int{paperdata.Feb, paperdata.Apr},
			Sem:          perspective.Forward,
			Mode:         perspective.Visual,
		})
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		assertCubesAgree(t, v, ref, memRef, perspective.Visual)
		if v.Stats.PeakResidentChunks <= 0 {
			t.Fatalf("%v: peak = %d", order, v.Stats.PeakResidentChunks)
		}
	}
}

// TestDimensionOrderLemma checks Lemma 5.1 on a cube engineered so that
// merging instances spans varying-dimension chunks: reading with the
// varying dimension first needs no more resident chunks than reading
// with it last, and the pebbling heuristic is at least as good as either.
func TestDimensionOrderLemma(t *testing.T) {
	// Chunk the organization dimension finely (1 member per chunk) so
	// Joe's three instances land in three different chunks.
	c := paperdata.ChunkedWarehouse([]int{1, 2, 4, 2})
	peaks := map[ReadOrder]int{}
	for _, order := range []ReadOrder{OrderPebbling, OrderVaryingFirst, OrderVaryingLast} {
		e, err := New(c, "Organization")
		if err != nil {
			t.Fatal(err)
		}
		e.SetReadOrder(order)
		v, err := e.ExecPerspective(PerspectiveQuery{
			Members:      []string{"Joe"},
			Perspectives: []int{paperdata.Feb, paperdata.Apr},
			Sem:          perspective.Forward,
			Mode:         perspective.Visual,
		})
		if err != nil {
			t.Fatal(err)
		}
		if v.Stats.MergeEdges == 0 {
			t.Fatal("test cube should produce merge edges")
		}
		peaks[order] = v.Stats.PeakResidentChunks
	}
	if peaks[OrderVaryingFirst] > peaks[OrderVaryingLast] {
		t.Fatalf("Lemma 5.1 violated: varying-first peak %d > varying-last peak %d",
			peaks[OrderVaryingFirst], peaks[OrderVaryingLast])
	}
	if peaks[OrderPebbling] > peaks[OrderVaryingFirst] {
		t.Fatalf("pebbling peak %d should not exceed varying-first peak %d",
			peaks[OrderPebbling], peaks[OrderVaryingFirst])
	}
}

// TestEngineWithSimulatedDisk: the store's read hook records exactly the
// reads Stats.ChunksRead counts, and that recorded order is what the
// seek model prices offline.
func TestEngineWithSimulatedDisk(t *testing.T) {
	e := newEngine(t)
	var order []int
	e.store.SetReadHook(func(id int) { order = append(order, id) })
	defer e.store.SetReadHook(nil)
	v, err := e.ExecPerspective(PerspectiveQuery{
		Members:      []string{"Joe"},
		Perspectives: []int{paperdata.Feb},
		Sem:          perspective.Forward,
		Mode:         perspective.NonVisual,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != v.Stats.ChunksRead || len(order) == 0 {
		t.Fatalf("read hook saw %d reads, Stats.ChunksRead = %d", len(order), v.Stats.ChunksRead)
	}
	if ms, _ := simdisk.DefaultModel().Cost(order); ms <= 0 {
		t.Fatalf("the recorded read order prices at %v ms, want > 0", ms)
	}
}

func TestViewStoreReadOnly(t *testing.T) {
	e := newEngine(t)
	v, err := e.ExecPerspective(PerspectiveQuery{
		Members: []string{"Joe"}, Perspectives: []int{paperdata.Jan},
		Sem: perspective.Static, Mode: perspective.NonVisual,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("writing through a view should panic")
		}
	}()
	v.Result().SetLeaf([]int{0, 0, 0, 0}, 1)
}

func TestViewStoreCloneMaterializes(t *testing.T) {
	e := newEngine(t)
	v, err := e.ExecPerspective(PerspectiveQuery{
		Members: []string{"Joe"}, Perspectives: []int{paperdata.Feb, paperdata.Apr},
		Sem: perspective.Forward, Mode: perspective.NonVisual,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := v.Result().Store().Clone()
	if snap.Len() != v.Result().Store().Len() {
		t.Fatalf("clone Len %d != view Len %d", snap.Len(), v.Result().Store().Len())
	}
	v.Result().Store().NonNull(func(addr []int, val float64) bool {
		if snap.Get(addr) != val {
			t.Fatalf("clone differs at %v", addr)
		}
		return true
	})
}

// TestEngineStaticOverUnorderedParameter exercises the engine with a
// location-driven varying dimension (paper §3.1: "structural changes
// are not necessarily temporal, but can vary by location"): static
// semantics is the only one defined, and it must work chunk-wise.
func TestEngineStaticOverUnorderedParameter(t *testing.T) {
	prod := dimension.New("Product", false)
	prod.MustAdd("", "100")
	prod.MustAdd("100", "1001")
	prod.MustAdd("", "200")
	prod.MustAdd("200", "1001")
	market := dimension.New("Market", false) // unordered
	for _, m := range []string{"E1", "E2", "W1", "W2"} {
		market.MustAdd("", m)
	}
	st := make([]int, 0)
	_ = st
	extents := []int{prod.NumLeaves(), market.NumLeaves()}
	g := chunkGeom(t, extents, []int{1, 2})
	store := chunkStore(g)
	c := cube.NewWithStore(store, prod, market)
	b := dimension.NewBinding(prod, market)
	b.SetVS(prod.MustLookup("100/1001"), 0, 1) // east bundling
	b.SetVS(prod.MustLookup("200/1001"), 2, 3) // west bundling
	if err := c.AddBinding(b); err != nil {
		t.Fatal(err)
	}
	set := func(inst string, mkt int, v float64) {
		c.SetLeaf([]int{prod.Member(prod.MustLookup(inst)).LeafOrdinal, mkt}, v)
	}
	set("100/1001", 0, 1)
	set("100/1001", 1, 2)
	set("200/1001", 2, 4)
	set("200/1001", 3, 8)

	e, err := New(c, "Product")
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic semantics must be rejected.
	if _, err := e.ExecPerspective(PerspectiveQuery{
		Members: []string{"1001"}, Perspectives: []int{0},
		Sem: perspective.Forward, Mode: perspective.NonVisual,
	}); err == nil {
		t.Fatal("forward over unordered Market should fail")
	}
	// Static at market E1 keeps only the east instance.
	v, err := e.ExecPerspective(PerspectiveQuery{
		Members: []string{"1001"}, Perspectives: []int{0},
		Sem: perspective.Static, Mode: perspective.NonVisual,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := v.CellRefs("100/1001", "E2"); err != nil || got != 2 {
		t.Fatalf("(100/1001, E2) = %v, %v; want 2", got, err)
	}
	if got, err := v.CellRefs("200/1001", "W1"); err != nil || !cube.IsNull(got) {
		t.Fatalf("(200/1001, W1) = %v, %v; want ⊥ (west instance dropped)", got, err)
	}
}

func chunkGeom(t *testing.T, extents, dims []int) *chunk.Geometry {
	t.Helper()
	g, err := chunk.NewGeometry(extents, dims)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func chunkStore(g *chunk.Geometry) *chunk.Store { return chunk.NewStore(g) }

// Regression: a non-visual aggregate over a split-created instance must
// be ⊥ (it has no input cell), not a panic (found by
// TestTheorem41RandomQueries).
func TestChangesNonVisualAggregateOfNewInstance(t *testing.T) {
	e := newEngine(t)
	v, err := e.ExecChanges(ChangesQuery{
		Changes: []algebra.Change{{Member: "Lisa", OldParent: "FTE", NewParent: "PTE", T: paperdata.Apr}},
		Mode:    perspective.NonVisual,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.CellRefs("PTE/Lisa", "NY", "Qtr2", "Salary")
	if err != nil {
		t.Fatal(err)
	}
	if !cube.IsNull(got) {
		t.Fatalf("non-visual aggregate of hypothetical instance = %v, want ⊥", got)
	}
	// Visual mode computes it from the relocated leaves.
	vv, err := e.ExecChanges(ChangesQuery{
		Changes: []algebra.Change{{Member: "Lisa", OldParent: "FTE", NewParent: "PTE", T: paperdata.Apr}},
		Mode:    perspective.Visual,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := vv.CellRefs("PTE/Lisa", "NY", "Qtr2", "Salary"); err != nil || got != 30 {
		t.Fatalf("visual aggregate = %v, %v; want 30", got, err)
	}
}

// TestEngineOverSpilledStore runs a perspective query against a store
// whose chunks mostly live in a segment file (the paper's cube-behind-a-
// cache configuration): results must match the fully resident run.
func TestEngineOverSpilledStore(t *testing.T) {
	c := paperdata.ChunkedWarehouse(nil)
	st := c.Store().(*chunk.Store)
	if err := segment.PageOut(st, t.TempDir()+"/cube.seg", 200); err != nil {
		t.Fatal(err)
	}
	if st.SpillStats().Spilled == 0 {
		t.Fatal("budget too large; nothing spilled — test is vacuous")
	}
	e, err := New(c, "Organization")
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.ExecPerspective(PerspectiveQuery{
		Members:      []string{"Joe"},
		Perspectives: []int{paperdata.Feb, paperdata.Apr},
		Sem:          perspective.Forward,
		Mode:         perspective.Visual,
	})
	if err != nil {
		t.Fatal(err)
	}
	memRef := paperdata.Warehouse()
	ref, err := algebra.ApplyPerspectives(memRef, "Organization", perspective.Forward,
		[]int{paperdata.Feb, paperdata.Apr})
	if err != nil {
		t.Fatal(err)
	}
	assertCubesAgree(t, v, ref, memRef, perspective.Visual)
	if st.SpillStats().Faults == 0 {
		t.Fatal("query over a spilled store should fault chunks")
	}
}

// TestFixedPointScope: Φ's fixed points — and only they — stay out of
// the scope. On the paper cube with Tom re-bound as a March hire (one
// instance, valid on [Mar, Dec)), a STATIC {Jan} query over Tom, Dave
// and Joe moves Tom and Joe but not Dave, whose one instance is valid
// all year: Dave's row is a base row, Tom's and Joe's are scoped, and
// every cell of Tom's vanishes, as the algebra's reference says.
func TestFixedPointScope(t *testing.T) {
	hire := func(c *cube.Cube) *cube.Cube {
		b := c.BindingFor("Organization")
		var months []int
		for m := paperdata.Mar; m <= paperdata.Dec; m++ {
			months = append(months, m)
		}
		b.SetVS(b.Varying.MustLookup("PTE/Tom"), months...)
		return c
	}
	memRef := hire(paperdata.Warehouse())
	e, err := New(hire(paperdata.ChunkedWarehouse(nil)), "Organization")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := algebra.ApplyPerspectives(memRef, "Organization", perspective.Static, []int{paperdata.Jan})
	if err != nil {
		t.Fatal(err)
	}
	org := e.binding.Varying
	for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
		v, err := e.ExecPerspective(PerspectiveQuery{
			Members:      []string{"Tom", "Dave", "Joe"},
			Perspectives: []int{paperdata.Jan},
			Sem:          perspective.Static,
			Mode:         mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		if v.Stats.MembersInScope != 3 || v.Stats.MembersMoved != 2 {
			t.Fatalf("%v: %d members in scope, %d moved; want 3 and 2 (Dave is a fixed point)", mode, v.Stats.MembersInScope, v.Stats.MembersMoved)
		}
		scoped := v.result.Store().(*viewStore).scoped
		for path, want := range map[string]bool{"PTE/Tom": true, "PTE/Dave": false, "FTE/Joe": true, "PTE/Joe": true, "Contractor/Joe": true} {
			if got := scoped[org.Member(org.MustLookup(path)).LeafOrdinal]; got != want {
				t.Fatalf("%v: %s scoped = %v, want %v", mode, path, got, want)
			}
		}
		assertCubesAgree(t, v, ref, memRef, mode)
		for m := paperdata.Jan; m <= paperdata.Jun; m++ {
			got, err := v.CellRefs("PTE/Tom", "NY", v.Result().Dim(2).Path(v.Result().Dim(2).Leaf(m).ID), "Salary")
			if err != nil {
				t.Fatal(err)
			}
			if !cube.IsNull(got) {
				t.Fatalf("%v: Tom's salary in month %d = %v, want it dropped under STATIC {Jan}", mode, m, got)
			}
		}
	}
}
