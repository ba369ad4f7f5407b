package mdx

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"whatifolap/internal/algebra"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
)

// TestPaperFig3Query runs the paper's §3.2 example query shape: salary
// for employee Joe by quarter (columns) and state (rows).
func TestPaperFig3Query(t *testing.T) {
	ev := NewEvaluator(paperdata.Warehouse())
	g, err := ev.Run(`
SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS,
       {[Location].Levels(0).Members} ON ROWS
FROM Warehouse
WHERE (Organization.[FTE].[Joe], Measures.[Compensation].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCols() != 2 {
		t.Fatalf("cols = %d, want 2", g.NumCols())
	}
	if g.NumRows() != 8 { // NY MA NH CA OR WA TX FL
		t.Fatalf("rows = %d, want 8", g.NumRows())
	}
	// FTE/Joe has salary only in NY in Jan: Q1 = 10, Q2 = ⊥.
	nyRow := -1
	for i, l := range g.RowLabels {
		if strings.HasSuffix(l, "NY") {
			nyRow = i
		}
	}
	if nyRow < 0 {
		t.Fatalf("no NY row in %v", g.RowLabels)
	}
	if got := g.Values[nyRow][0]; got != 10 {
		t.Fatalf("NY/Q1 = %v, want 10", got)
	}
	if !math.IsNaN(g.Values[nyRow][1]) {
		t.Fatalf("NY/Q2 = %v, want ⊥", g.Values[nyRow][1])
	}
	// The rendering contains the ⊥ glyph like the paper's figures.
	if !strings.Contains(g.String(), "⊥") {
		t.Fatal("text rendering should show ⊥")
	}
}

// TestFig4ViaMDX runs the complete extended-MDX pipeline for the
// paper's Fig. 4 scenario on both evaluation paths (algebra over the
// MemStore cube, engine over the chunked cube) and checks the headline
// cells.
func TestFig4ViaMDX(t *testing.T) {
	for name, ev := range map[string]*Evaluator{
		"algebra": NewEvaluator(paperdata.Warehouse()),
		"engine":  NewEvaluator(paperdata.ChunkedWarehouse(nil)),
	} {
		g, err := ev.Run(`
WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS,
       {[PTE].Children, [Contractor].Children} DIMENSION PROPERTIES [Organization] ON ROWS
FROM Warehouse
WHERE ([Location].[NY], [Measures].[Salary])`)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cell := func(rowSuffix, col string) float64 {
			for i, rl := range g.RowLabels {
				if !strings.HasSuffix(rl, rowSuffix) {
					continue
				}
				for j, cl := range g.ColLabels {
					if cl == col || strings.HasSuffix(cl, "/"+col) {
						return g.Values[i][j]
					}
				}
			}
			t.Fatalf("%s: no cell (%s, %s); rows %v cols %v", name, rowSuffix, col, g.RowLabels, g.ColLabels)
			return 0
		}
		if got := cell("PTE/Joe", "Mar"); got != 30 {
			t.Errorf("%s: (PTE/Joe, Mar) = %v, want 30", name, got)
		}
		if got := cell("PTE/Joe", "Jan"); !math.IsNaN(got) {
			t.Errorf("%s: (PTE/Joe, Jan) = %v, want ⊥", name, got)
		}
		if got := cell("PTE/Joe", "Qtr1"); got != 40 {
			t.Errorf("%s: visual Q1(PTE/Joe) = %v, want 40", name, got)
		}
		if got := cell("Contractor/Joe", "Qtr2"); got != 20 {
			t.Errorf("%s: visual Q2(Contractor/Joe) = %v, want 20 (Apr+Jun)", name, got)
		}
		// DIMENSION PROPERTIES [Organization] reports the parent.
		foundProp := false
		for i, rl := range g.RowLabels {
			if strings.HasSuffix(rl, "PTE/Joe") && len(g.RowProps) > i && g.RowProps[i][0] == "PTE" {
				foundProp = true
			}
		}
		if !foundProp {
			t.Errorf("%s: missing PTE property for PTE/Joe; props = %v", name, g.RowProps)
		}
	}
}

// TestEngineAndAlgebraPathsAgree compares the two evaluation paths
// cell-for-cell on a forward visual query covering the whole grid.
func TestEngineAndAlgebraPathsAgree(t *testing.T) {
	src := `
WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS,
       {Descendants([Organization], 1, SELF_AND_AFTER)} ON ROWS
FROM Warehouse
WHERE ([Location].[NY], [Measures].[Salary])`
	ga, err := NewEvaluator(paperdata.Warehouse()).Run(src)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := NewEvaluator(paperdata.ChunkedWarehouse(nil)).Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if ga.NumRows() != ge.NumRows() || ga.NumCols() != ge.NumCols() {
		t.Fatalf("shapes differ: %dx%d vs %dx%d", ga.NumRows(), ga.NumCols(), ge.NumRows(), ge.NumCols())
	}
	for i := range ga.Values {
		for j := range ga.Values[i] {
			a, e := ga.Values[i][j], ge.Values[i][j]
			if math.IsNaN(a) != math.IsNaN(e) || (!math.IsNaN(a) && math.Abs(a-e) > 1e-9) {
				t.Fatalf("cell (%s, %s): algebra %v, engine %v",
					ga.RowLabels[i], ga.ColLabels[j], a, e)
			}
		}
	}
}

func TestChangesQueryViaMDX(t *testing.T) {
	for name, ev := range map[string]*Evaluator{
		"algebra": NewEvaluator(paperdata.Warehouse()),
		"engine":  NewEvaluator(paperdata.ChunkedWarehouse(nil)),
	} {
		g, err := ev.Run(`
WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], [Apr])} VISUAL
SELECT {[Time].[Qtr2]} ON COLUMNS,
       {[PTE], [FTE]} ON ROWS
FROM Warehouse
WHERE ([Location].[NY], [Measures].[Salary])`)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Visual Q2: PTE gains Lisa (Tom 30 + Lisa 30); FTE loses her.
		byRow := map[string]float64{}
		for i, rl := range g.RowLabels {
			byRow[rl] = g.Values[i][0]
		}
		if byRow["PTE"] != 60 {
			t.Errorf("%s: Q2(PTE) = %v, want 60", name, byRow["PTE"])
		}
		if byRow["FTE"] != 0 && !math.IsNaN(byRow["FTE"]) {
			// FTE keeps only Joe (no Q2 data) after the move -> ⊥.
			t.Errorf("%s: Q2(FTE) = %v, want ⊥", name, byRow["FTE"])
		}
	}
}

func TestChangesChildrenExpansion(t *testing.T) {
	ev := NewEvaluator(paperdata.Warehouse())
	// Move all of FTE's children to Contractor in June.
	g, err := ev.Run(`
WITH CHANGES {([FTE].Children, [FTE], [Contractor], [Jun])} VISUAL
SELECT {[Time].[Jun]} ON COLUMNS, {[Contractor]} ON ROWS
FROM Warehouse
WHERE ([Location].[NY], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	// June contractors: Jane 10 + Joe 10 (already) + Lisa 10 (moved) = 30.
	if got := g.Values[0][0]; got != 30 {
		t.Fatalf("Jun(Contractor) = %v, want 30", got)
	}
}

func TestCombinedChangesAndPerspective(t *testing.T) {
	// Changes apply first, then perspectives negate pre-existing
	// changes: after moving Lisa to PTE in Apr, a static Jan perspective
	// keeps only instances valid in Jan — FTE/Lisa survives (Jan..Mar),
	// PTE/Lisa does not.
	ev := NewEvaluator(paperdata.Warehouse())
	g, err := ev.Run(`
WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], [Apr])}
WITH PERSPECTIVE {(Jan)} FOR Organization STATIC VISUAL
SELECT {Descendants([Time], 2, SELF)} ON COLUMNS,
       {[FTE].[Lisa], [PTE].[Lisa]} ON ROWS
FROM Warehouse
WHERE ([Location].[NY], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	rowOf := func(suffix string) int {
		for i, rl := range g.RowLabels {
			if strings.HasSuffix(rl, suffix) {
				return i
			}
		}
		t.Fatalf("no row %s in %v", suffix, g.RowLabels)
		return -1
	}
	colOf := func(name string) int {
		for j, cl := range g.ColLabels {
			if cl == name || strings.HasSuffix(cl, "/"+name) {
				return j
			}
		}
		t.Fatalf("no col %s", name)
		return -1
	}
	if got := g.Values[rowOf("FTE/Lisa")][colOf("Feb")]; got != 10 {
		t.Fatalf("(FTE/Lisa, Feb) = %v, want 10", got)
	}
	// PTE/Lisa is dropped by the static Jan perspective.
	for j := range g.ColLabels {
		if v := g.Values[rowOf("PTE/Lisa")][j]; !math.IsNaN(v) {
			t.Fatalf("(PTE/Lisa, %s) = %v, want ⊥", g.ColLabels[j], v)
		}
	}
}

func TestEvaluatorErrors(t *testing.T) {
	ev := NewEvaluator(paperdata.Warehouse())
	for _, src := range []string{
		`SELECT {[Nonexistent].[X]} ON COLUMNS FROM W`,
		`SELECT {[Joe]} ON COLUMNS FROM W`,                                                               // ambiguous instance name
		`WITH PERSPECTIVE {(Jan)} FOR Location STATIC SELECT {[NY]} ON COLUMNS FROM W`,                   // no binding
		`WITH PERSPECTIVE {(Qtr1)} FOR Organization STATIC SELECT {[NY]} ON COLUMNS FROM W`,              // non-leaf point
		`SELECT {[NY]} ON COLUMNS FROM W WHERE ([MA])`,                                                   // slicer dim on axis
		`WITH CHANGES {([Lisa], [PTE], [FTE], [Apr])} SELECT {[NY]} ON COLUMNS FROM W`,                   // Lisa not under PTE
		`WITH CHANGES {([FTE].[Lisa], [FTE], [Contractor/Jane], [Apr])} SELECT {[NY]} ON COLUMNS FROM W`, // leaf new parent
		`WITH CHANGES {([FTE].[Lisa], [FTE], [East], [Apr])} SELECT {[NY]} ON COLUMNS FROM W`,            // cross-dimension parents
		`SELECT {[Location].[NY].Members} ON COLUMNS FROM W`,                                             // Members on a member
		`SELECT {Head({[NY]}, 3), [Time].[Jan].Levels(0).Members} ON COLUMNS FROM W`,                     // Levels on member
	} {
		if _, err := ev.Run(src); err == nil {
			t.Errorf("Run(%q) should fail", src)
		}
	}
}

func TestHeadAndUnionSemantics(t *testing.T) {
	ev := NewEvaluator(paperdata.Warehouse())
	g, err := ev.Run(`
SELECT {Head({[Time].Levels(0).Members}, 3)} ON COLUMNS,
       {Union({[FTE].Children}, {[FTE].Children})} ON ROWS
FROM Warehouse
WHERE ([Location].[NY], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCols() != 3 {
		t.Fatalf("Head(…, 3) gave %d columns", g.NumCols())
	}
	if g.NumRows() != 3 { // Joe, Lisa, Sue — duplicates removed
		t.Fatalf("Union dedup gave %d rows, want 3", g.NumRows())
	}
}

func TestDefaultAggregationOverUnmentionedDims(t *testing.T) {
	ev := NewEvaluator(paperdata.Warehouse())
	// Neither Organization nor Location mentioned: cells aggregate over
	// everything (visual is irrelevant without a scenario).
	g, err := ev.Run(`
SELECT {[Time].[Qtr1]} ON COLUMNS FROM Warehouse WHERE ([Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	// Q1 NY salaries: Joe 10+10+30, Lisa 30, Tom 30, Jane 30 = 140;
	// MA: Lisa 15. Total 155.
	if got := g.Values[0][0]; got != 155 {
		t.Fatalf("grand Q1 = %v, want 155", got)
	}
}

func TestGridCSV(t *testing.T) {
	ev := NewEvaluator(paperdata.Warehouse())
	g, err := ev.Run(`SELECT {[Time].[Jan]} ON COLUMNS, {[Contractor].Children} ON ROWS FROM W WHERE ([Location].[NY], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	csv := g.CSV()
	if !strings.Contains(csv, "Jan") || !strings.Contains(csv, "Contractor/Jane") {
		t.Fatalf("CSV missing labels:\n%s", csv)
	}
	// ⊥ renders as empty field: Contractor/Joe has no Jan value.
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	for _, ln := range lines {
		if strings.HasPrefix(ln, "Contractor/Joe") && !strings.HasSuffix(ln, ",") {
			t.Fatalf("⊥ should be empty in CSV: %q", ln)
		}
	}
}

// TestMultipleVaryingDimensions runs a query with one perspective
// clause per varying dimension (the paper: "a cube may have several
// varying dimensions"). Both Org-like dimensions vary over the same
// Time dimension; each clause negates one dimension's changes.
func TestMultipleVaryingDimensions(t *testing.T) {
	org := dimension.New("Org", false)
	org.MustAdd("", "A")
	org.MustAdd("A", "x")
	org.MustAdd("", "B")
	org.MustAdd("B", "x")
	proj := dimension.New("Project", false)
	proj.MustAdd("", "P1")
	proj.MustAdd("P1", "t")
	proj.MustAdd("", "P2")
	proj.MustAdd("P2", "t")
	tim := dimension.New("Time", true)
	for _, m := range []string{"t0", "t1", "t2", "t3"} {
		tim.MustAdd("", m)
	}
	c := cube.New(org, tim, proj)
	b1 := dimension.NewBinding(org, tim)
	b1.SetVS(org.MustLookup("A/x"), 0, 1)
	b1.SetVS(org.MustLookup("B/x"), 2, 3)
	b2 := dimension.NewBinding(proj, tim)
	b2.SetVS(proj.MustLookup("P1/t"), 0, 2)
	b2.SetVS(proj.MustLookup("P2/t"), 1, 3)
	if err := c.AddBinding(b1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddBinding(b2); err != nil {
		t.Fatal(err)
	}
	set := func(orgRef string, m int, projRef string, v float64) {
		c.SetValue([]dimension.MemberID{
			org.MustLookup(orgRef), tim.Leaf(m).ID, proj.MustLookup(projRef),
		}, v)
	}
	set("A/x", 0, "P1/t", 1)
	set("A/x", 1, "P2/t", 2)
	set("B/x", 2, "P1/t", 4)
	set("B/x", 3, "P2/t", 8)

	ev := NewEvaluator(c)
	g, err := ev.Run(`
WITH PERSPECTIVE {(t0)} FOR Org DYNAMIC FORWARD VISUAL
WITH PERSPECTIVE {(t0)} FOR Project DYNAMIC FORWARD VISUAL
SELECT {[Time].Members} ON COLUMNS, {[A].[x]} ON ROWS
FROM C
WHERE ([Project].[P1].[t])`)
	if err != nil {
		t.Fatal(err)
	}
	// After both forward perspectives at t0, everything lands on A/x
	// and P1/t: the row holds 1, 2, 4, 8 across t0..t3.
	want := map[string]float64{"t0": 1, "t1": 2, "t2": 4, "t3": 8}
	for j, cl := range g.ColLabels {
		if w, ok := want[cl]; ok {
			if got := g.Values[0][j]; got != w {
				t.Fatalf("(A/x, %s) = %v, want %v", cl, got, w)
			}
		}
	}
	// Duplicate clause for the same dimension is rejected.
	if _, err := Parse(`
WITH PERSPECTIVE {(t0)} FOR Org STATIC
WITH PERSPECTIVE {(t1)} FOR Org STATIC
SELECT {x} ON COLUMNS FROM C`); err == nil {
		t.Fatal("duplicate perspective dimension should fail")
	}
}

func TestNonEmptyAxes(t *testing.T) {
	ev := NewEvaluator(paperdata.Warehouse())
	// Without NON EMPTY: Sue and Dave (inactive) appear as all-⊥ rows,
	// and Qtr3/Qtr4 columns are empty.
	full, err := ev.Run(`
SELECT {[Time].Children} ON COLUMNS,
       {Descendants([Organization], 2, SELF)} ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := ev.Run(`
SELECT NON EMPTY {[Time].Children} ON COLUMNS,
       NON EMPTY {Descendants([Organization], 2, SELF)} ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumRows() != 8 || filtered.NumRows() != 6 {
		t.Fatalf("rows = %d/%d, want 8 full and 6 filtered (Sue and Dave dropped)",
			full.NumRows(), filtered.NumRows())
	}
	if full.NumCols() != 4 || filtered.NumCols() != 2 {
		t.Fatalf("cols = %d/%d, want 4 full and 2 filtered (Qtr3/Qtr4 dropped)",
			full.NumCols(), filtered.NumCols())
	}
	for _, rl := range filtered.RowLabels {
		if strings.HasSuffix(rl, "Sue") || strings.HasSuffix(rl, "Dave") {
			t.Fatalf("inactive member %s survived NON EMPTY", rl)
		}
	}
	// NON must be followed by EMPTY.
	if _, err := Parse(`SELECT NON {x} ON COLUMNS FROM A`); err == nil {
		t.Fatal("bare NON should fail")
	}
}

func BenchmarkRunFig4Query(b *testing.B) {
	ev := NewEvaluator(paperdata.ChunkedWarehouse(nil))
	q := MustParse(`
WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS,
       {[PTE].Children} ON ROWS
FROM Warehouse WHERE ([Location].[NY], [Measures].[Salary])`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.RunQueryWith(RunContext{}, q); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunQueryStatsEnginePath(t *testing.T) {
	ev := NewEvaluator(paperdata.ChunkedWarehouse(nil))
	// A leaf grid: under NONVISUAL a roll-up column such as Qtr1 is
	// retained from the input, and the engine, which plans from the
	// grid's footprint, would rightly read nothing for it.
	q := MustParse(`
WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD
SELECT {[Time].[Feb]} ON COLUMNS, {[PTE].[Joe]} ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Salary])`)
	_, stats, err := ev.RunQueryStatsWith(RunContext{}, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChunksRead == 0 || stats.SourceInstances == 0 {
		t.Fatalf("engine path should populate stats: %+v", stats)
	}
	// The algebra path reports zero engine stats.
	ev2 := NewEvaluator(paperdata.Warehouse())
	_, stats2, err := ev2.RunQueryStatsWith(RunContext{}, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.ChunksRead != 0 {
		t.Fatalf("algebra path should not report chunk reads: %+v", stats2)
	}
}

func TestAggregateSlicerMember(t *testing.T) {
	// A non-leaf member in the slicer aggregates over its subtree: East
	// = NY + MA + NH.
	ev := NewEvaluator(paperdata.Warehouse())
	g, err := ev.Run(`
SELECT {[Time].[Qtr1]} ON COLUMNS, {[FTE].[Lisa]} ON ROWS
FROM W WHERE ([Location].[East], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	// Lisa Q1: NY 30 + MA 15 = 45.
	if got := g.Values[0][0]; got != 45 {
		t.Fatalf("Lisa Q1 under East = %v, want 45", got)
	}
}

func TestDimensionPropertyForAbsentDimension(t *testing.T) {
	ev := NewEvaluator(paperdata.Warehouse())
	g, err := ev.Run(`
SELECT {[Time].[Jan]} ON COLUMNS,
       {[FTE].[Lisa]} DIMENSION PROPERTIES [Measures] ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	// Measures is not on the row axis, so the property is empty rather
	// than an error.
	if len(g.RowProps) != 1 || g.RowProps[0][0] != "" {
		t.Fatalf("RowProps = %v, want one empty value", g.RowProps)
	}
}

func TestLookupPartsWalksChildren(t *testing.T) {
	ev := NewEvaluator(paperdata.Warehouse())
	// Head-then-walk resolution: [East].[NY] resolves East by name and
	// then walks down to the child.
	g, err := ev.Run(`
SELECT {[Time].[Jan]} ON COLUMNS, {[East].[NY]} ON ROWS
FROM W WHERE ([Organization].[FTE].[Lisa], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Values[0][0]; got != 10 {
		t.Fatalf("(Lisa, NY, Jan) = %v, want 10", got)
	}
	// Missing child errors cleanly.
	if _, err := ev.Run(`SELECT {[East].[Chicago]} ON COLUMNS FROM W`); err == nil {
		t.Fatal("missing child should fail")
	}
	// Deep qualified paths with the dimension prefix work too.
	if _, err := ev.Run(`SELECT {[Location].[East].[NY]} ON COLUMNS FROM W WHERE ([Measures].[Salary])`); err != nil {
		t.Fatal(err)
	}
}

func TestEvalSetEdgeCases(t *testing.T) {
	ev := NewEvaluator(paperdata.Warehouse())
	// Empty set literal is legal and yields an empty axis.
	g, err := ev.Run(`SELECT {} ON COLUMNS, {[FTE].[Lisa]} ON ROWS FROM W WHERE ([Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCols() != 0 {
		t.Fatalf("empty set gave %d columns", g.NumCols())
	}
	// Member functions are rejected inside tuples.
	if _, err := ev.Run(`SELECT {([FTE].Children, [NY])} ON COLUMNS FROM W`); err == nil {
		t.Fatal("function inside tuple should fail")
	}
	// Head with negative count (parser only accepts literals, so build
	// the AST directly).
	if _, err := ev.evalSet(ev.cube, &Head{Set: &SetLiteral{}, N: -1}); err == nil {
		t.Fatal("negative Head should fail")
	}
	// Descendants with AFTER flag.
	ts, err := ev.evalSet(ev.cube, MustParse(
		`SELECT {Descendants([Time], 1, AFTER)} ON COLUMNS FROM W`).Axes[0].Set)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 12 { // strictly below the quarters: the months
		t.Fatalf("Descendants AFTER = %d tuples, want 12", len(ts))
	}
	// Union/CrossJoin propagate resolution errors from either side.
	for _, src := range []string{
		`SELECT {Union({[Nope]}, {[NY]})} ON COLUMNS FROM W`,
		`SELECT {Union({[NY]}, {[Nope]})} ON COLUMNS FROM W`,
		`SELECT {CrossJoin({[Nope]}, {[NY]})} ON COLUMNS FROM W`,
		`SELECT {CrossJoin({[NY]}, {[Nope]})} ON COLUMNS FROM W`,
		`SELECT {Head({[Nope]}, 1)} ON COLUMNS FROM W`,
		`SELECT {Descendants([Nope])} ON COLUMNS FROM W`,
	} {
		if _, err := ev.Run(src); err == nil {
			t.Errorf("Run(%q) should fail", src)
		}
	}
}

func TestResolveChangesErrors(t *testing.T) {
	ev := NewEvaluator(paperdata.Warehouse())
	for _, src := range []string{
		// Unknown old parent.
		`WITH CHANGES {([Lisa], [Nope], [PTE], [Apr])} SELECT {[NY]} ON COLUMNS FROM W`,
		// Parents across dimensions.
		`WITH CHANGES {([Lisa], [FTE], [East], [Apr])} SELECT {[NY]} ON COLUMNS FROM W`,
		// Non-leaf change moment.
		`WITH CHANGES {([Lisa], [FTE], [PTE], [Qtr2])} SELECT {[NY]} ON COLUMNS FROM W`,
		// Unknown moment.
		`WITH CHANGES {([Lisa], [FTE], [PTE], [Smarch])} SELECT {[NY]} ON COLUMNS FROM W`,
		// Change member set in the wrong dimension.
		`WITH CHANGES {([East].Children, [FTE], [PTE], [Apr])} SELECT {[NY]} ON COLUMNS FROM W`,
		// Changes spanning two varying dimensions in one clause.
		`WITH CHANGES {([Lisa], [FTE], [PTE], [Apr]), ([NY], [East], [West], [Apr])} SELECT {[Jan]} ON COLUMNS FROM W`,
		// Non-leaf change member.
		`WITH CHANGES {([FTE], [Organization], [PTE], [Apr])} SELECT {[NY]} ON COLUMNS FROM W`,
	} {
		if _, err := ev.Run(src); err == nil {
			t.Errorf("Run(%q) should fail", src)
		}
	}
}

// TestTransferClause runs the paper's §1 data-driven scenario end to
// end through extended MDX: 10% of PTE Q1 salaries move from NY to MA.
func TestTransferClause(t *testing.T) {
	ev := NewEvaluator(paperdata.Warehouse())
	g, err := ev.Run(`
WITH TRANSFER 0.10 FROM [NY] TO [MA] FOR ([Organization].[PTE], [Time].[Qtr1], [Measures].[Salary])
SELECT {[Location].[NY], [Location].[MA]} ON COLUMNS,
       {[PTE].[Tom]} ON ROWS
FROM Warehouse
WHERE ([Time].[Jan], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Values[0][0]; got != 9 {
		t.Fatalf("(Tom, NY, Jan) = %v, want 9", got)
	}
	if got := g.Values[0][1]; got != 1 {
		t.Fatalf("(Tom, MA, Jan) = %v, want 1", got)
	}
	// Transfers compose with structural scenarios.
	g2, err := ev.Run(`
WITH TRANSFER 0.5 FROM [NY] TO [MA] FOR ([Measures].[Salary])
WITH PERSPECTIVE {(Feb)} FOR Organization DYNAMIC FORWARD VISUAL
SELECT {[Time].[Qtr1].[Mar]} ON COLUMNS, {[PTE].[Joe]} ON ROWS
FROM W WHERE ([Location].[MA], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	// Contractor/Joe's Mar salary 30 halves to MA (15), then forward at
	// Feb relocates it to PTE/Joe.
	if got := g2.Values[0][0]; got != 15 {
		t.Fatalf("(PTE/Joe, Mar, MA) = %v, want 15", got)
	}
}

func TestTransferClauseErrors(t *testing.T) {
	ev := NewEvaluator(paperdata.Warehouse())
	for _, src := range []string{
		`WITH TRANSFER FROM [NY] TO [MA] SELECT {[Jan]} ON COLUMNS FROM W`,       // missing fraction
		`WITH TRANSFER 0.1 FROM [NY] SELECT {[Jan]} ON COLUMNS FROM W`,           // missing TO
		`WITH TRANSFER 0.1 FROM [NY] TO [Jan] SELECT {[Feb]} ON COLUMNS FROM W`,  // cross-dimension
		`WITH TRANSFER 1.5 FROM [NY] TO [MA] SELECT {[Jan]} ON COLUMNS FROM W`,   // bad fraction
		`WITH TRANSFER 0.1 FROM [Nope] TO [MA] SELECT {[Jan]} ON COLUMNS FROM W`, // unknown member
		`WITH TRANSFER 0.1 FROM [NY] TO [MA] FOR ([Nope]) SELECT {[Jan]} ON COLUMNS FROM W`,
	} {
		if _, err := ev.Run(src); err == nil {
			t.Errorf("Run(%q) should fail", src)
		}
	}
}

func TestExplain(t *testing.T) {
	// Algebra path with rewrites.
	ev := NewEvaluator(paperdata.Warehouse())
	q := MustParse(`
WITH PERSPECTIVE {(Jan), (Jan)} FOR Organization STATIC
SELECT {[Time].[Qtr1]} ON COLUMNS FROM W WHERE ([Measures].[Salary])`)
	ex, err := ev.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "path: algebra") || !strings.Contains(ex, "static-as-selection") {
		t.Fatalf("explain missing rewrite info:\n%s", ex)
	}
	// Engine path.
	ev2 := NewEvaluator(paperdata.ChunkedWarehouse(nil))
	ex2, err := ev2.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex2, "perspective-cube engine") {
		t.Fatalf("chunked cube should explain the engine path:\n%s", ex2)
	}
	// No-rewrite case.
	q3 := MustParse(`SELECT {[Time].[Jan]} ON COLUMNS FROM W`)
	ex3, err := ev.Explain(q3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex3, "no rewrites") {
		t.Fatalf("plain query should report no rewrites:\n%s", ex3)
	}
}

// TestGoldenFig2Rendering snapshots the text rendering of the Fig. 2
// slice to guard the grid formatter (labels, alignment, the ⊥ glyph).
func TestGoldenFig2Rendering(t *testing.T) {
	ev := NewEvaluator(paperdata.Warehouse())
	g, err := ev.Run(`
SELECT {[Time].[Qtr1].Children} ON COLUMNS,
       {[FTE].[Joe], [PTE].[Joe], [Contractor].[Joe]} ON ROWS
FROM Warehouse
WHERE ([Location].[NY], [Measures].[Salary])`)
	if err != nil {
		t.Fatal(err)
	}
	want := "" +
		"                Qtr1/Jan  Qtr1/Feb  Qtr1/Mar\n" +
		"FTE/Joe         10        ⊥       ⊥     \n" +
		"PTE/Joe         ⊥       10        ⊥     \n" +
		"Contractor/Joe  ⊥       ⊥       30      \n"
	if got := g.String(); got != want {
		t.Fatalf("rendering drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestTheorem41RandomQueries checks the paper's Theorem 4.1 on
// randomized queries: for every extended-MDX what-if query Qn there is
// an algebra expression En with Qn(Cin) = En(Q(Cin)). The evaluator's
// grid must match cells computed by composing ApplyChanges /
// ApplyPerspectives / CellValue by hand.
func TestTheorem41RandomQueries(t *testing.T) {
	semNames := []string{"STATIC", "DYNAMIC FORWARD", "EXTENDED DYNAMIC FORWARD",
		"DYNAMIC BACKWARD", "EXTENDED DYNAMIC BACKWARD"}
	sems := []perspective.Semantics{perspective.Static, perspective.Forward,
		perspective.ExtendedForward, perspective.Backward, perspective.ExtendedBackward}
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		si := r.Intn(len(sems))
		k := 1 + r.Intn(3)
		pts := make([]string, k)
		ords := make([]int, k)
		for i := range pts {
			o := r.Intn(12)
			pts[i] = "(" + months[o] + ")"
			ords[i] = o
		}
		modeName, mode := "NONVISUAL", perspective.NonVisual
		if r.Intn(2) == 0 {
			modeName, mode = "VISUAL", perspective.Visual
		}
		withChanges := r.Intn(2) == 0
		changesClause := ""
		var changes []algebra.Change
		if withChanges {
			at := 1 + r.Intn(10)
			changesClause = "WITH CHANGES {([FTE].[Lisa], [FTE], [Contractor], [" + months[at] + "])}\n"
			changes = []algebra.Change{{Member: "Lisa", OldParent: "FTE", NewParent: "Contractor", T: at}}
		}
		src := changesClause +
			"WITH PERSPECTIVE {" + strings.Join(pts, ", ") + "} FOR Organization " +
			semNames[si] + " " + modeName + "\n" +
			`SELECT {[Time].[Qtr1], [Time].[Qtr2]} ON COLUMNS,
			 {[PTE].Children, [Contractor].Children} ON ROWS
			 FROM W WHERE ([Location].[NY], [Measures].[Salary])`

		cin := paperdata.Warehouse()
		g, err := NewEvaluator(cin).Run(src)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Hand-composed pipeline.
		work := cin
		if withChanges {
			work, err = algebra.ApplyChanges(work, "Organization", changes)
			if err != nil {
				t.Log(err)
				return false
			}
		}
		out, err := algebra.ApplyPerspectives(work, "Organization", sems[si], ords)
		if err != nil {
			t.Log(err)
			return false
		}
		org := out.DimByName("Organization")
		loc := out.DimByName("Location")
		tim := out.DimByName("Time")
		meas := out.DimByName("Measures")
		var rows []dimension.MemberID
		for _, parent := range []string{"PTE", "Contractor"} {
			rows = append(rows, org.Member(org.MustLookup(parent)).Children...)
		}
		if len(rows) != g.NumRows() {
			t.Logf("seed %d: row counts %d vs %d", seed, len(rows), g.NumRows())
			return false
		}
		for i, rid := range rows {
			for j, q := range []string{"Qtr1", "Qtr2"} {
				want, err := algebra.CellValue(cin, out, []dimension.MemberID{
					rid, loc.MustLookup("NY"), tim.MustLookup(q), meas.MustLookup("Salary"),
				}, mode)
				if err != nil {
					t.Log(err)
					return false
				}
				got := g.Values[i][j]
				if math.IsNaN(want) != math.IsNaN(got) || (!math.IsNaN(want) && math.Abs(want-got) > 1e-9) {
					t.Logf("seed %d (%s): cell (%s, %s) = %v, want %v",
						seed, semNames[si], g.RowLabels[i], q, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
