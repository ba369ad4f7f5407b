package olap_test

import (
	"math"
	"strings"
	"testing"

	olap "whatifolap"
)

// TestQuickstart exercises the README's quickstart path end to end
// through the public API only.
func TestQuickstart(t *testing.T) {
	c := olap.PaperWarehouse()
	grid, err := olap.Query(c, `
WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS,
       {[PTE].Children} ON ROWS
FROM Warehouse
WHERE ([Location].[NY], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	if grid.NumRows() == 0 || grid.NumCols() == 0 {
		t.Fatal("empty grid")
	}
	if !strings.Contains(grid.String(), "PTE/Joe") {
		t.Fatal("grid should include PTE/Joe row")
	}
}

// TestBuildCubeFromScratch builds a minimal varying cube through the
// public constructors and runs both scenario pipelines on it.
func TestBuildCubeFromScratch(t *testing.T) {
	org := olap.NewDimension("Org", false)
	org.MustAdd("", "A")
	org.MustAdd("A", "x")
	org.MustAdd("", "B")
	org.MustAdd("B", "x")

	tim := olap.NewDimension("T", true)
	tim.MustAdd("", "t0")
	tim.MustAdd("", "t1")
	tim.MustAdd("", "t2")
	tim.MustAdd("", "t3")

	c := olap.NewCube(org, tim)
	b := olap.NewBinding(org, tim)
	b.SetVS(org.MustLookup("A/x"), 0, 1)
	b.SetVS(org.MustLookup("B/x"), 2, 3)
	if err := c.AddBinding(b); err != nil {
		t.Fatal(err)
	}
	for _, cell := range []struct {
		inst string
		m    int
		v    float64
	}{{"A/x", 0, 1}, {"A/x", 1, 2}, {"B/x", 2, 4}, {"B/x", 3, 8}} {
		c.SetValue([]olap.MemberID{org.MustLookup(cell.inst), tim.Leaf(cell.m).ID}, cell.v)
	}

	// Negative scenario: pretend the reclassification never happened.
	out, err := olap.ApplyPerspectives(c, "Org", olap.Forward, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	ax := out.DimByName("Org").MustLookup("A/x")
	total, err := olap.CellValue(c, out, []olap.MemberID{ax, tim.Root()}, olap.Visual)
	if err != nil {
		t.Fatal(err)
	}
	if total != 15 {
		t.Fatalf("A/x yearly total under forward = %v, want 15", total)
	}

	// Positive scenario: move x from A to B at t1.
	split, err := olap.ApplyChanges(c, "Org", []olap.Change{
		{Member: "x", OldParent: "A", NewParent: "B", T: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	bx := split.DimByName("Org").MustLookup("B/x")
	bTotal, err := olap.CellValue(c, split, []olap.MemberID{bx, tim.Root()}, olap.Visual)
	if err != nil {
		t.Fatal(err)
	}
	if bTotal != 14 {
		t.Fatalf("B/x total after split = %v, want 2+4+8=14", bTotal)
	}
}

// TestEngineThroughFacade configures the chunked engine via the facade.
func TestEngineThroughFacade(t *testing.T) {
	c := olap.PaperWarehouseChunked()
	e, err := olap.NewEngine(c, "Organization")
	if err != nil {
		t.Fatal(err)
	}
	e.SetReadOrder(olap.OrderPebbling)
	// The engine type is core.Engine; its query types are internal, so
	// facade users drive it through extended MDX instead.
	grid, err := olap.Query(c, `
WITH PERSPECTIVE {(Jan)} FOR Organization STATIC
SELECT {[Time].[Qtr1]} ON COLUMNS, {[FTE].Children} ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	if grid.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3 (Joe, Lisa, Sue)", grid.NumRows())
	}
}

func TestWorkforceThroughFacade(t *testing.T) {
	cfg := olap.WorkforceDefault()
	cfg.Employees, cfg.ChangingEmployees, cfg.Departments = 120, 12, 8
	cfg.Accounts, cfg.Scenarios = 3, 1
	w, err := olap.NewWorkforce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Changing) != 12 {
		t.Fatalf("changing = %d", len(w.Changing))
	}
	if _, err := olap.NewEngine(w.Cube, "Department"); err != nil {
		t.Fatal(err)
	}
	paper := olap.WorkforcePaper()
	if paper.Employees != 20250 || paper.Departments != 51 || paper.ChangingEmployees != 250 {
		t.Fatalf("paper config drifted: %+v", paper)
	}
}

func TestRetailThroughFacade(t *testing.T) {
	rt, err := olap.NewRetailByTime(olap.RetailDefault())
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Moving) == 0 {
		t.Fatal("no moving products")
	}
	rm, err := olap.NewRetailByMarket(olap.RetailDefault())
	if err != nil {
		t.Fatal(err)
	}
	if len(rm.Moving) == 0 {
		t.Fatal("no market-varying products")
	}
}

func TestNullConstant(t *testing.T) {
	if !olap.IsNull(olap.Null) {
		t.Fatal("Null should be IsNull")
	}
	if olap.IsNull(0) || !math.IsNaN(olap.Null) {
		t.Fatal("Null semantics wrong")
	}
}

func TestNewChunkedCubeValidation(t *testing.T) {
	d := olap.NewDimension("D", false)
	d.MustAdd("", "a")
	if _, err := olap.NewChunkedCube([]int{1, 1}, d); err == nil {
		t.Fatal("chunk-dims arity mismatch should fail")
	}
	c, err := olap.NewChunkedCube([]int{1}, d)
	if err != nil {
		t.Fatal(err)
	}
	c.SetLeaf([]int{0}, 42)
	if c.Leaf([]int{0}) != 42 {
		t.Fatal("chunked cube roundtrip failed")
	}
}

// A paged cube's chunks are its segment's: EncodeRuns converts none of
// them, even where a resident copy would run-encode, and leaves the
// buffer pool as it was.
func TestEncodeRunsConvertsNothingOnSpilledCube(t *testing.T) {
	cfg := olap.WorkforceConfig{
		Employees: 60, Departments: 6, ChangingEmployees: 10,
		MinMoves: 1, MaxMoves: 4, Months: 12, Accounts: 4, Scenarios: 2,
		Seed: 1, FlatMonths: true, ChunkDims: []int{64, 12, 1, 1, 1, 1, 1},
	}
	w, err := olap.NewWorkforce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := olap.EncodeRuns(w.Cube.Clone()); err != nil || n == 0 {
		t.Fatalf("resident EncodeRuns = %d, %v; want conversions", n, err)
	}
	if err := olap.SpillTo(w.Cube, t.TempDir()+"/vw.seg", 1<<20); err != nil {
		t.Fatal(err)
	}
	before, err := olap.CubeSpillStats(w.Cube)
	if err != nil {
		t.Fatal(err)
	}
	if before.Resident == 0 {
		t.Fatalf("nothing resident after SpillTo: %+v", before)
	}
	if n, err := olap.EncodeRuns(w.Cube); err != nil || n != 0 {
		t.Fatalf("EncodeRuns on a spilled cube = %d, %v; want 0", n, err)
	}
	if after, _ := olap.CubeSpillStats(w.Cube); after != before {
		t.Fatalf("EncodeRuns moved the pool: %+v -> %+v", before, after)
	}
}

func TestSpillThroughFacade(t *testing.T) {
	c := olap.PaperWarehouseChunked()
	if err := olap.SpillTo(c, t.TempDir()+"/cube.spill", 200); err != nil {
		t.Fatal(err)
	}
	grid, err := olap.Query(c, `
WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
SELECT {[Time].[Qtr1]} ON COLUMNS, {[PTE].[Joe]} ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Values[0][0] != 40 {
		t.Fatalf("spilled query = %v, want 40", grid.Values[0][0])
	}
	st, err := olap.CubeSpillStats(c)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spilled == 0 {
		t.Fatalf("spill stats after SpillTo(budget=200) = %+v, want spilled chunks", st)
	}
	if st.Faults == 0 {
		t.Fatalf("spill stats after a query = %+v, want fault-ins", st)
	}
	// Non-chunked cubes are rejected.
	if _, err := olap.EncodeRuns(olap.PaperWarehouse()); err == nil {
		t.Fatal("EncodeRuns over MemStore should fail")
	}
	if err := olap.SpillTo(olap.PaperWarehouse(), t.TempDir()+"/x", 100); err == nil {
		t.Fatal("SpillTo over MemStore should fail")
	}
	if _, err := olap.CubeSpillStats(olap.PaperWarehouse()); err == nil {
		t.Fatal("CubeSpillStats over MemStore should fail")
	}
}
