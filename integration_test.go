// Integration tests: the full pipeline — workload generation, extended
// MDX, the algebra operators, the chunked engine (read as a cube, and
// projected into a grid as a served query is) — cross-validated against
// each other on randomized datasets and queries.
package olap_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"whatifolap/internal/algebra"
	"whatifolap/internal/core"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/mdx"
	"whatifolap/internal/perspective"
	"whatifolap/internal/workload"
)

// memCopy materializes any cube into a MemStore-backed cube sharing
// dimensions, bindings and rules — giving the algebra operators an
// identical starting point to the engine's chunked cube.
func memCopy(c *cube.Cube) *cube.Cube {
	out := cube.New(c.Dims()...)
	for _, b := range c.Bindings() {
		if err := out.AddBinding(b); err != nil {
			panic(err)
		}
	}
	out.SetRules(c.Rules())
	c.Store().NonNull(func(addr []int, v float64) bool {
		out.SetLeaf(addr, v)
		return true
	})
	return out
}

// TestQuickEnginePathsAgreeOnRandomWorkforces is the central
// cross-validation property: for random small workforces and random
// perspective queries, the algebra pipeline, the engine's view read as
// a cube, and the served path — a leaf report of the scoped instances
// projected as the scan runs, in a randomly drawn mode — produce
// identical leaf cells. The report must fuse: the scan folds its cells
// into the grid and builds no overlay.
func TestQuickEnginePathsAgreeOnRandomWorkforces(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := workload.WorkforceConfig{
			Employees:         20 + r.Intn(60),
			Departments:       3 + r.Intn(6),
			ChangingEmployees: 3 + r.Intn(8),
			MinMoves:          1,
			MaxMoves:          1 + r.Intn(6),
			Months:            12,
			Accounts:          1 + r.Intn(3),
			Scenarios:         1,
			Seed:              seed,
		}
		w, err := workload.NewWorkforce(cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		sems := []perspective.Semantics{perspective.Static, perspective.Forward,
			perspective.ExtendedForward, perspective.Backward, perspective.ExtendedBackward}
		sem := sems[r.Intn(len(sems))]
		nPts := 1 + r.Intn(4)
		pts := make([]int, nPts)
		for i := range pts {
			pts[i] = r.Intn(cfg.Months)
		}
		scope := w.Changing[:1+r.Intn(len(w.Changing))]
		mode := []perspective.Mode{perspective.NonVisual, perspective.Visual}[r.Intn(2)]

		// Algebra reference.
		input := memCopy(w.Cube)
		ref, err := algebra.ApplyPerspectives(input, workload.DimDepartment, sem, pts)
		if err != nil {
			t.Log(err)
			return false
		}
		// Engine paths.
		e, err := core.New(w.Cube, workload.DimDepartment)
		if err != nil {
			t.Log(err)
			return false
		}
		q := core.PerspectiveQuery{Members: scope, Perspectives: pts, Sem: sem, Mode: mode}
		mat, err := e.ExecPerspective(q)
		if err != nil {
			t.Log(err)
			return false
		}

		// Compare over the scoped rows (the engine transforms only the
		// scoped members; the algebra transforms all). Check every cell
		// of every instance of every scoped member.
		dept := w.Cube.DimByName(workload.DimDepartment)
		inScope := map[int]bool{}
		var rows []core.Tuple
		for _, name := range scope {
			for _, inst := range dept.Instances(name) {
				inScope[dept.Member(inst).LeafOrdinal] = true
				rows = append(rows, core.Tuple{{Dim: 0, Member: inst}})
			}
		}
		same := func(got, want float64) bool {
			return math.IsNaN(want) == math.IsNaN(got) && (math.IsNaN(want) || math.Abs(want-got) <= 1e-9)
		}
		agree := true
		// All reference cells in scope must appear in the engine's view.
		ref.Store().NonNull(func(addr []int, v float64) bool {
			if inScope[addr[0]] {
				if got := mat.Result().Leaf(addr); !same(got, v) {
					t.Logf("seed %d %v %v: cell %v = %v, want %v", seed, sem, pts, addr, got, v)
					agree = false
				}
			}
			return agree
		})

		// The served path: the scoped instances down the rows, every
		// month × account across the columns, the first leaf of each
		// other dimension in the slicer.
		pi, ai := w.Cube.DimIndex(workload.DimPeriod), w.Cube.DimIndex(workload.DimAccount)
		grid := core.Grid{Rows: rows}
		for _, m := range w.Cube.Dim(pi).Leaves() {
			for _, a := range w.Cube.Dim(ai).Leaves() {
				grid.Cols = append(grid.Cols, core.Tuple{{Dim: pi, Member: m}, {Dim: ai, Member: a}})
			}
		}
		for d := 0; d < w.Cube.NumDims(); d++ {
			if d != 0 && d != pi && d != ai {
				grid.Slicer = append(grid.Slicer, core.Coord{Dim: d, Member: w.Cube.Dim(d).Leaf(0).ID})
			}
		}
		out := make([][]float64, len(grid.Rows))
		for i := range out {
			out[i] = make([]float64, len(grid.Cols))
		}
		_, ps, err := e.ExecPerspectiveProjected(core.ExecContext{}, q, grid, out)
		if err != nil {
			t.Log(err)
			return false
		}
		if !ps.Fused {
			t.Logf("seed %d %v %v %v: the leaf report did not fuse: %+v", seed, sem, pts, mode, ps)
			return false
		}
		ids := make([]dimension.MemberID, w.Cube.NumDims())
		held := 0
		for i, row := range out {
			for j, got := range row {
				if !math.IsNaN(got) {
					held++
				}
				clear(ids)
				for _, tp := range [...]core.Tuple{grid.Slicer, grid.Cols[j], grid.Rows[i]} {
					for _, co := range tp {
						ids[co.Dim] = co.Member
					}
				}
				want, err := algebra.CellValue(input, ref, ids, mode)
				if err != nil {
					t.Log(err)
					return false
				}
				if !same(got, want) {
					t.Logf("seed %d %v %v %v: served cell (%d, %d) = %v, want %v", seed, sem, pts, mode, i, j, got, want)
					agree = false
				}
			}
		}
		if held == 0 {
			t.Logf("seed %d %v %v %v: the leaf report holds no cell", seed, sem, pts, mode)
			return false
		}
		// And scoped engine cells must not exceed the reference: count.
		countScoped := func(c *cube.Cube) int {
			n := 0
			c.Store().NonNull(func(addr []int, v float64) bool {
				if inScope[addr[0]] {
					n++
				}
				return true
			})
			return n
		}
		nRef := countScoped(ref)
		if nMat := countScoped(mat.Result()); nMat != nRef {
			t.Logf("seed %d %v %v: scoped cell counts diverge (ref %d, engine %d)", seed, sem, pts, nRef, nMat)
			return false
		}
		return agree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSplitInvariants: random positive scenarios preserve the
// validity-partition invariant and conserve cell values.
func TestQuickSplitInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := workload.ConfigTiny()
		cfg.Seed = seed
		w, err := workload.NewWorkforce(cfg)
		if err != nil {
			return false
		}
		c := memCopy(w.Cube)
		dept := c.DimByName(workload.DimDepartment)
		// Random chained changes on one stable employee.
		name := fmt.Sprintf("Emp%05d", cfg.ChangingEmployees+r.Intn(cfg.Employees-cfg.ChangingEmployees))
		home := dept.Member(dept.Member(dept.Instances(name)[0]).Parent).Name
		other := fmt.Sprintf("Dept%02d", r.Intn(cfg.Departments))
		if other == home {
			return true // skip degenerate draw
		}
		t1 := 1 + r.Intn(5)
		t2 := t1 + 1 + r.Intn(5)
		out, err := algebra.ApplyChanges(c, workload.DimDepartment, []algebra.Change{
			{Member: name, OldParent: home, NewParent: other, T: t1},
			{Member: name, OldParent: other, NewParent: home, T: t2},
		})
		if err != nil {
			t.Log(err)
			return false
		}
		b := out.BindingFor(workload.DimDepartment)
		if err := b.Validate(); err != nil {
			t.Log(err)
			return false
		}
		// The employee's instances partition the year.
		nd := out.DimByName(workload.DimDepartment)
		covered := 0
		for _, inst := range nd.Instances(name) {
			covered += b.ValiditySet(inst).Len()
		}
		if covered != cfg.Months {
			t.Logf("seed %d: coverage %d months, want %d", seed, covered, cfg.Months)
			return false
		}
		// Value conservation.
		sum := func(c *cube.Cube) float64 {
			s := 0.0
			c.Store().NonNull(func(addr []int, v float64) bool { s += v; return true })
			return s
		}
		return math.Abs(sum(c)-sum(out)) < 1e-6*(1+sum(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMDXOnGeneratedWorkforce runs a paper-style extended-MDX query end
// to end on a generated chunked workforce (the Fig. 10(c) shape) and
// cross-checks one grid cell against a hand-computed value.
func TestMDXOnGeneratedWorkforce(t *testing.T) {
	cfg := workload.ConfigTiny()
	w, err := workload.NewWorkforce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	emp := w.Changing[0]
	ev := mdx.NewEvaluator(w.Cube)
	grid, err := ev.Run(fmt.Sprintf(`
WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department DYNAMIC FORWARD
SELECT {[Account].Levels(0).Members} ON COLUMNS,
       {CrossJoin({[%s]}, {Descendants([Period], 1, SELF_AND_AFTER)})}
       DIMENSION PROPERTIES [Department] ON ROWS
FROM [App].[Db]
WHERE ([Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`,
		// The changing employee's name is ambiguous across instances,
		// so qualify with the January department.
		w.Cube.DimByName(workload.DimDepartment).Path(
			w.Cube.BindingFor(workload.DimDepartment).InstanceAt(emp, 0))))
	if err != nil {
		t.Fatal(err)
	}
	if grid.NumCols() != cfg.Accounts {
		t.Fatalf("cols = %d, want %d accounts", grid.NumCols(), cfg.Accounts)
	}
	// 12 months + 4 quarters of rows for the single instance.
	if grid.NumRows() != cfg.Months+4 {
		t.Fatalf("rows = %d, want %d", grid.NumRows(), cfg.Months+4)
	}
	if grid.NonNullCells() == 0 {
		t.Fatal("grid is empty")
	}
	// With P covering the year at quarter starts and forward semantics,
	// the January instance hosts the months of its stretch; its
	// dimension property is the January department.
	b := w.Cube.BindingFor(workload.DimDepartment)
	dept := w.Cube.DimByName(workload.DimDepartment)
	inst0 := b.InstanceAt(emp, 0)
	wantDept := dept.Path(dept.Member(inst0).Parent)
	found := false
	for i := range grid.RowLabels {
		if len(grid.RowProps) > i && len(grid.RowProps[i]) > 0 && grid.RowProps[i][0] == wantDept {
			found = true
		}
	}
	if !found {
		t.Fatalf("no row carries department property %q: %v", wantDept, grid.RowProps)
	}
}

// TestViewAggregationMatchesManualRollup drives visual aggregation on a
// generated cube and verifies one quarter aggregate against a manual
// sum over the view's leaf cells.
func TestViewAggregationMatchesManualRollup(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(w.Cube, workload.DimDepartment)
	if err != nil {
		t.Fatal(err)
	}
	name := w.Changing[0]
	v, err := e.ExecPerspective(core.PerspectiveQuery{
		Members: []string{name}, Perspectives: []int{0},
		Sem: perspective.Forward, Mode: perspective.Visual,
	})
	if err != nil {
		t.Fatal(err)
	}
	dept := w.Cube.DimByName(workload.DimDepartment)
	period := w.Cube.DimByName(workload.DimPeriod)
	b := w.Cube.BindingFor(workload.DimDepartment)
	inst := b.InstanceAt(name, 0)
	q1 := period.MustLookup("Q1")

	ids := make([]dimension.MemberID, w.Cube.NumDims())
	ids[0], ids[1] = inst, q1
	for i := 2; i < len(ids); i++ {
		ids[i] = w.Cube.Dim(i).Leaf(0).ID
	}
	got, err := v.Cell(ids)
	if err != nil {
		t.Fatal(err)
	}
	manual := 0.0
	addr := make([]int, w.Cube.NumDims())
	addr[0] = dept.Member(inst).LeafOrdinal
	for m := 0; m < 3; m++ {
		addr[1] = m
		leaf := v.Result().Leaf(addr)
		if !cube.IsNull(leaf) {
			manual += leaf
		}
	}
	if math.Abs(got-manual) > 1e-9 {
		t.Fatalf("visual Q1 = %v, manual sum = %v", got, manual)
	}
}
