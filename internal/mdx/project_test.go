package mdx

import (
	"fmt"
	"strings"
	"testing"

	"whatifolap/internal/cube"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/workload"
)

// projectAttrs are the project span's attributes.
var projectAttrs = map[string][]string{"project": {"cells_compiled", "cells_fallback", "cells_folded"}}

// checkCompiled runs one engine query as it is served, cell by cell
// over a view of it (runProjected) and under EXPLAIN, and requires the
// grids to agree, the span and EXPLAIN to report the whole grid
// compiled and fused into the scan, and the pass to have folded
// something.
func checkCompiled(t *testing.T, label string, ev *Evaluator, src string) {
	t.Helper()
	q, lo, ok := lowerEngine(t, label, ev, src)
	if !ok {
		t.Fatalf("%s: the lowering refused the query\n%s", label, src)
	}
	got := runProjected(t, label, ev, q, lo)
	closeGrid(t, label+": compiled vs per-cell", got.compiled, got.perCell)
	cells := len(lo.grid.rows) * len(lo.grid.cols)
	if got.ps.Compiled != cells || got.ps.Fallback != 0 || got.ps.Folded == 0 || !got.ps.Fused {
		t.Fatalf("%s: %+v for a grid of %d cells", label, got.ps, cells)
	}
	attrs := spanAttrs(t, ev, q, projectAttrs)
	if attrs["cells_compiled"] != int64(cells) || attrs["cells_folded"] != int64(got.ps.Folded) {
		t.Fatalf("%s: project span %v, want %d cells compiled and %d folded", label, attrs, cells, got.ps.Folded)
	}
	if _, ok := attrs["cells_fallback"]; ok {
		t.Fatalf("%s: project span %v reports fallback cells", label, attrs)
	}
	text, err := ev.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "\nproject: fused\n") {
		t.Fatalf("%s: EXPLAIN has no fused projection:\n%s", label, text)
	}
}

// TestProjectCompiledReports: every report shape the benchmark serves —
// the department report, the leaf report, the static and visual
// roll-ups, the employee query and the changes query — runs compiled on
// the tiny workforce, in both modes where the benchmark draws both.
func TestProjectCompiledReports(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(w.Cube)
	const (
		slicer   = "[Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue]"
		accounts = "{[Account].Levels(0).Members}"
		periods  = "{Descendants([Period], 1, SELF_AND_AFTER)}"
	)
	dept := w.Cube.DimByName(workload.DimDepartment)
	emp := dept.Path(w.Cube.BindingFor(workload.DimDepartment).InstanceAt(w.Changing[0], 0))
	reports := map[string]string{
		"department": `WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department DYNAMIC FORWARD VISUAL
SELECT ` + accounts + ` ON COLUMNS, {CrossJoin({[Dept01]}, ` + periods + `)} ON ROWS FROM [App].[Db] WHERE (` + slicer + `)`,
		"leaf-report": `WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department EXTENDED FORWARD NONVISUAL
SELECT {[Period].Levels(0).Members} ON COLUMNS, {[Dept00].Children, [Dept02].Children} ON ROWS
FROM [App].[Db] WHERE ([Account].[Acct001], ` + slicer + `)`,
	}
	for _, mode := range []string{"VISUAL", "NONVISUAL"} {
		reports["rollup-static "+mode] = `WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department STATIC ` + mode + `
SELECT {[Period].Levels(1).Members} ON COLUMNS, {[Department].Levels(1).Members} ON ROWS
FROM [App].[Db] WHERE ([Account].[Acct002], ` + slicer + `)`
		reports["rollup-visual "+mode] = `WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department EXTENDED BACKWARD ` + mode + `
SELECT {[Period].Levels(1).Members} ON COLUMNS, {[Department].Levels(1).Members} ON ROWS
FROM [App].[Db] WHERE ([Account].[Acct002], ` + slicer + `)`
		reports["employee "+mode] = `WITH PERSPECTIVE {(Feb), (May)} FOR Department DYNAMIC BACKWARD ` + mode + `
SELECT ` + accounts + ` ON COLUMNS, {CrossJoin({[` + emp + `]}, ` + periods + `)} ON ROWS FROM [App].[Db] WHERE (` + slicer + `)`
		reports["changes "+mode] = `WITH CHANGES {([Dept00].[Emp00030], [Dept00], [Dept01], [Apr])} ` + mode + `
SELECT ` + accounts + ` ON COLUMNS, {CrossJoin({[Dept01]}, ` + periods + `)} ON ROWS FROM [App].[Db] WHERE (` + slicer + `)`
	}
	for label, src := range reports {
		checkCompiled(t, label, ev, src)
	}
}

// TestProjectAggregations: the pass folds with the function RuleSet.AggFor
// declares per grid cell — the default and a measure's override, each of
// sum, avg, min, max and count — and answers what the per-cell roll-up
// does, over the view under VISUAL and over the input under NONVISUAL.
func TestProjectAggregations(t *testing.T) {
	for _, f := range []cube.AggFunc{cube.AggSum, cube.AggAvg, cube.AggMin, cube.AggMax, cube.AggCount} {
		c := paperdata.ChunkedWarehouse(nil)
		rules := cube.NewRuleSet()
		rules.SetDefaultAgg(f)
		rules.SetAgg("Compensation", cube.AggMax)
		c.SetRules(rules)
		ev := NewEvaluator(c)
		for _, mode := range []string{"VISUAL", "NONVISUAL"} {
			src := `WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD ` + mode + `
SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS,
       {CrossJoin({[Organization].Children}, {[Measures].[Salary], [Measures].[Compensation]})} ON ROWS
FROM W WHERE ([Location].[NY])`
			checkCompiled(t, fmt.Sprintf("%v %s", f, mode), ev, src)
		}
	}
}

// TestProjectFormulaFallsBack: Margin is a formula rule, which the pass
// cannot express, so a Margin grid evaluates cell by cell — EXPLAIN, the
// project span and the grid all say so — while the same grid on Sales,
// a stored measure, compiles.
func TestProjectFormulaFallsBack(t *testing.T) {
	rt, err := workload.NewRetailByTime(workload.ConfigRetail())
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(chunkedCopy(rt.Cube, []int{4, 5, 2, 3}))
	query := func(measure string) string {
		return `WITH PERSPECTIVE {(Jan)} FOR Product DYNAMIC FORWARD VISUAL
SELECT {[Time].Children} ON COLUMNS, {[Product].Children} ON ROWS
FROM Retail WHERE ([Market].[East].[E1], [Measures].[` + measure + `])`
	}
	checkCompiled(t, "Sales", ev, query("Sales"))

	src := query("Margin")
	q, lo, ok := lowerEngine(t, "Margin", ev, src)
	if !ok {
		t.Fatal("the lowering refused the Margin grid")
	}
	got := runProjected(t, "Margin", ev, q, lo)
	closeGrid(t, "Margin: compiled vs per-cell", got.compiled, got.perCell)
	cells := len(lo.grid.rows) * len(lo.grid.cols)
	if got.ps.Fallback != cells || got.ps.Reason != "formula rule Margin" {
		t.Fatalf("Margin grid: %+v, want all %d cells per-cell for the formula rule", got.ps, cells)
	}
	if attrs := spanAttrs(t, ev, q, projectAttrs); attrs["cells_fallback"] != int64(cells) {
		t.Fatalf("project span %v, want %d cells fallen back", attrs, cells)
	}
	text, err := ev.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nproject: per-cell (formula rule Margin; %d of %d cells)\n", cells, cells); !strings.Contains(text, want) {
		t.Fatalf("EXPLAIN lacks %q:\n%s", want, text)
	}
}

// TestProjectHypotheticalInstance: under WITH CHANGES the grid may name
// the instance the change creates — on the rows, the columns or in the
// slicer. A leaf cell reads it from the view; a NONVISUAL roll-up naming
// it is ⊥ (the input has no such cell, Definition 4.5) without being
// evaluated; a VISUAL one rolls the view up.
func TestProjectHypotheticalInstance(t *testing.T) {
	ev := NewEvaluator(paperdata.ChunkedWarehouse(nil))
	const with = "WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], [Apr])} "
	const lisa = "[Organization].[PTE].[Lisa]"
	for _, mode := range []string{"VISUAL", "NONVISUAL"} {
		for label, sel := range map[string]string{
			"slicer": `SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS, {[Measures].[Salary], [Measures].[Compensation]} ON ROWS
FROM W WHERE ([Location].[NY], ` + lisa + `)`,
			"rows": `SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS, {` + lisa + `, [Organization].[PTE]} ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Salary])`,
			"columns": `SELECT {` + lisa + `, [FTE].[Lisa], [Organization].[PTE]} ON COLUMNS, {Descendants([Time], 1, SELF_AND_AFTER)} ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Compensation])`,
		} {
			checkCompiled(t, label+" "+mode, ev, with+mode+" "+sel)
		}
	}
	// The slicer case under NONVISUAL: every roll-up is ⊥, and some leaf
	// cell holds a moved value.
	g, err := ev.Run(with + `NONVISUAL SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS, {[Measures].[Salary]} ON ROWS
FROM W WHERE ([Location].[NY], ` + lisa + `)`)
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for j, label := range g.ColLabels {
		v := g.Values[0][j]
		if !strings.Contains(label, "/") && !cube.IsNull(v) {
			t.Fatalf("NONVISUAL roll-up %s over a hypothetical instance = %v, want ⊥", label, v)
		}
		if !cube.IsNull(v) {
			held++
		}
	}
	if held == 0 {
		t.Fatal("no month of PTE/Lisa holds a moved value")
	}
}

// TestProjectAxesShareADimension: a dimension may be on both axes; a
// cell takes the row's member there (the per-cell projection's order),
// and the compiled pass keys it so.
func TestProjectAxesShareADimension(t *testing.T) {
	ev := NewEvaluator(paperdata.ChunkedWarehouse(nil))
	for _, mode := range []string{"VISUAL", "NONVISUAL"} {
		checkCompiled(t, mode, ev, `WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD `+mode+`
SELECT {([Time].[Qtr1], [Measures].[Salary]), ([Time].[Jan], [Measures].[Benefits]), ([Measures].[Compensation])} ON COLUMNS,
       {CrossJoin({[Organization].Children}, {[Time].[Feb], [Time].[Qtr2]}), ([Organization].[PTE].[Joe])} ON ROWS
FROM W WHERE ([Location].[NY])`)
	}
}
