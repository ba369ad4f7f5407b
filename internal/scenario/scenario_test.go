package scenario_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/mdx"
	"whatifolap/internal/scenario"
	"whatifolap/internal/workload"
)

// allSemantics spans the paper's five perspective semantics as MDX
// clauses; allModes the two measure modes.
var allSemantics = []string{
	"STATIC",
	"DYNAMIC FORWARD",
	"DYNAMIC BACKWARD",
	"EXTENDED FORWARD",
	"EXTENDED BACKWARD",
}

var allModes = []string{"VISUAL", "NONVISUAL"}

func newWorkforce(t testing.TB) *workload.Workforce {
	t.Helper()
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// perspectiveQuery builds one perspective query over the workforce's
// first changing employee (qualified by its January department path,
// since the bare name is ambiguous across instances).
func perspectiveQuery(t testing.TB, w *workload.Workforce, sem, mode string) string {
	t.Helper()
	dept := w.Cube.DimByName(workload.DimDepartment)
	b := w.Cube.BindingFor(workload.DimDepartment)
	inst := dept.Path(b.InstanceAt(w.Changing[0], 0))
	return fmt.Sprintf(`
WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department %s %s
SELECT {[Account].Levels(0).Members} ON COLUMNS,
       {CrossJoin({[%s]}, {Descendants([Period], 1, SELF_AND_AFTER)})} ON ROWS
FROM [App].[Db]
WHERE ([Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`,
		sem, mode, inst)
}

// queryScenario evaluates a query against the scenario's layered view.
func queryScenario(t testing.TB, s *scenario.Scenario, query string) string {
	t.Helper()
	g, _, err := evalScenario(s, query)
	if err != nil {
		t.Fatalf("scenario %s: %v", s.ID(), err)
	}
	return g
}

// evalScenario evaluates a query against the scenario's layered view and
// returns the grid with the number of chunks the engine read (0 on the
// algebra path).
func evalScenario(s *scenario.Scenario, query string) (string, int, error) {
	view, _, err := s.View()
	if err != nil {
		return "", 0, err
	}
	q, err := mdx.Parse(query)
	if err != nil {
		return "", 0, err
	}
	rc := mdx.RunContext{Ctx: context.Background()}
	g, stats, err := mdx.NewEvaluator(view).RunQueryStatsWith(rc, q)
	if err != nil {
		return "", 0, err
	}
	return g.CSV(), stats.ChunksRead, nil
}

// closeCSV reports whether two CSV grids have the same labels and
// cells, numbers compared to a relative 1e-9.
func closeCSV(a, b string) bool {
	split := func(s string) []string { return strings.Split(strings.ReplaceAll(s, "\n", ","), ",") }
	af, bf := split(a), split(b)
	if len(af) != len(bf) {
		return false
	}
	for i := range af {
		x, errX := strconv.ParseFloat(af[i], 64)
		y, errY := strconv.ParseFloat(bf[i], 64)
		if errX != nil || errY != nil {
			if af[i] != bf[i] {
				return false
			}
		} else if math.Abs(x-y) > 1e-9*math.Max(1, math.Abs(y)) {
			return false
		}
	}
	return true
}

// onEngine reports whether the query runs on the engine against the
// scenario's view, as EXPLAIN names its path.
func onEngine(t testing.TB, s *scenario.Scenario, query string) bool {
	t.Helper()
	view, _, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	text, err := mdx.NewEvaluator(view).Explain(mdx.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	return strings.HasPrefix(text, "path: perspective-cube engine")
}

// queryGeneralPath evaluates a query against the scenario's layered
// view through the general (algebra) path: the view's store is wrapped
// so that the evaluator does not see chunked storage.
func queryGeneralPath(t testing.TB, s *scenario.Scenario, query string) string {
	t.Helper()
	view, _, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	plain := cube.NewWithStore(struct{ cube.Store }{view.Store()}, view.Dims()...)
	for _, b := range view.Bindings() {
		if err := plain.AddBinding(b); err != nil {
			t.Fatal(err)
		}
	}
	plain.SetRules(view.Rules())
	g, err := mdx.NewEvaluator(plain).Run(query)
	if err != nil {
		t.Fatal(err)
	}
	return g.CSV()
}

// leafAddr resolves member refs (dimension name → ref) to a leaf
// address under the cube's dimensions, defaulting omitted dimensions
// to ordinal 0 — the same convention scenario cell edits use.
func leafAddr(t testing.TB, c *cube.Cube, cell map[string]string) []int {
	t.Helper()
	dims := c.Dims()
	addr := make([]int, len(dims))
	for name, ref := range cell {
		found := false
		for i, d := range dims {
			if d.Name() != name {
				continue
			}
			id, err := d.Lookup(ref)
			if err != nil {
				t.Fatal(err)
			}
			addr[i] = d.Member(id).LeafOrdinal
			found = true
		}
		if !found {
			t.Fatalf("no dimension %q", name)
		}
	}
	return addr
}

// TestScenarioForkBitIdenticalUntilDivergence is the fork property
// test: a forked scenario's query results are bit-identical to its
// parent's across all 5 semantics × 2 modes until the fork's first
// divergent edit, diff(A, A) is always empty, and the parent's results
// never move when the fork edits.
func TestScenarioForkBitIdenticalUntilDivergence(t *testing.T) {
	w := newWorkforce(t)
	m := scenario.NewManager()
	parent, err := m.Create("plan-a", "wf", 1, w.Cube)
	if err != nil {
		t.Fatal(err)
	}

	// Seed the parent with a few random cell edits so forks inherit a
	// non-trivial layer chain.
	r := rand.New(rand.NewSource(7))
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	randomCell := func() map[string]string {
		// Employees 10.. are non-changing, so bare names are unique.
		return map[string]string{
			workload.DimDepartment: fmt.Sprintf("Emp%05d", 10+r.Intn(50)),
			workload.DimPeriod:     months[r.Intn(len(months))],
			workload.DimAccount:    fmt.Sprintf("Acct%03d", r.Intn(4)),
		}
	}
	var seed []scenario.Edit
	for i := 0; i < 8; i++ {
		seed = append(seed, scenario.Edit{Op: scenario.OpSet, Cell: randomCell(), Value: float64(1000 + r.Intn(9000))})
	}
	seed = append(seed, scenario.Edit{Op: scenario.OpDelete, Cell: randomCell()})
	if _, err := parent.Apply(seed); err != nil {
		t.Fatal(err)
	}

	fork, err := m.Fork(parent.ID(), "plan-b")
	if err != nil {
		t.Fatal(err)
	}

	type combo struct{ sem, mode string }
	parentGrids := map[combo]string{}
	for _, sem := range allSemantics {
		for _, mode := range allModes {
			q := perspectiveQuery(t, w, sem, mode)
			pg := queryScenario(t, parent, q)
			fg := queryScenario(t, fork, q)
			if pg != fg {
				t.Fatalf("%s %s: fork diverged from parent before any fork edit\nparent:\n%s\nfork:\n%s", sem, mode, pg, fg)
			}
			parentGrids[combo{sem, mode}] = pg
		}
	}

	for _, pair := range [][2]*scenario.Scenario{{parent, parent}, {fork, fork}, {parent, fork}} {
		d, err := scenario.Diff(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(d) != 0 {
			t.Fatalf("diff(%s, %s) = %d cells, want empty", pair[0].ID(), pair[1].ID(), len(d))
		}
	}

	// First divergent edit: bump a cell the queries cover (the changing
	// employee's January salary under its January instance).
	dept := w.Cube.DimByName(workload.DimDepartment)
	b := w.Cube.BindingFor(workload.DimDepartment)
	inst := dept.Path(b.InstanceAt(w.Changing[0], 0))
	divergent := map[string]string{
		workload.DimDepartment: inst,
		workload.DimPeriod:     "Jan",
		workload.DimAccount:    "Acct000",
	}
	if _, err := fork.Apply([]scenario.Edit{{Op: scenario.OpSet, Cell: divergent, Value: 123456}}); err != nil {
		t.Fatal(err)
	}

	d, err := scenario.Diff(parent, fork)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 {
		t.Fatalf("diff after one divergent edit = %v, want exactly 1 cell", d)
	}
	if d[0].B == nil || *d[0].B != 123456 {
		t.Fatalf("diff B side = %v, want 123456", d[0].B)
	}
	wantAddr := leafAddr(t, w.Cube, divergent)
	base := w.Cube.Store().Get(wantAddr)
	if d[0].A == nil || *d[0].A != base {
		t.Fatalf("diff A side = %v, want base value %v", d[0].A, base)
	}

	diverged := false
	for _, sem := range allSemantics {
		for _, mode := range allModes {
			q := perspectiveQuery(t, w, sem, mode)
			if got := queryScenario(t, parent, q); got != parentGrids[combo{sem, mode}] {
				t.Fatalf("%s %s: parent results moved after fork edit", sem, mode)
			}
			if queryScenario(t, fork, q) != parentGrids[combo{sem, mode}] {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("no query combo observed the divergent edit")
	}
}

// TestScenarioDiffNewMemberAllocs: a scenario that introduced a member
// holds an extension of the base dimension, and rendering the cells it
// reports must cost what it costs on a plain one — not a copy of the
// dimension's leaf list per reported cell. Two forks make the same 16
// edits; one also adds an employee. Their diffs against the parent
// report the same cells and allocate alike, in both orientations.
func TestScenarioDiffNewMemberAllocs(t *testing.T) {
	w := newWorkforce(t)
	m := scenario.NewManager()
	parent, err := m.Create("base", "wf", 1, w.Cube)
	if err != nil {
		t.Fatal(err)
	}
	var edits []scenario.Edit
	for i := 0; i < 16; i++ {
		edits = append(edits, scenario.Edit{Op: scenario.OpSet, Value: float64(1000 + i), Cell: map[string]string{
			workload.DimDepartment: fmt.Sprintf("Emp%05d", 20+i),
			workload.DimPeriod:     "Mar",
			workload.DimAccount:    "Acct001",
		}})
	}
	plain, err := m.Fork(parent.ID(), "")
	if err != nil {
		t.Fatal(err)
	}
	grown, err := m.Fork(parent.ID(), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Apply(edits); err != nil {
		t.Fatal(err)
	}
	newMember := scenario.Edit{Op: scenario.OpNewMember, Dim: workload.DimDepartment, Parent: "Dept00", Name: "EmpHypo"}
	if _, err := grown.Apply(append([]scenario.Edit{newMember}, edits...)); err != nil {
		t.Fatal(err)
	}
	for _, orient := range []struct {
		name         string
		plain, grown func() ([]scenario.CellDiff, error)
	}{
		{"edited side first", func() ([]scenario.CellDiff, error) { return scenario.Diff(plain, parent) },
			func() ([]scenario.CellDiff, error) { return scenario.Diff(grown, parent) }},
		{"parent first", func() ([]scenario.CellDiff, error) { return scenario.Diff(parent, plain) },
			func() ([]scenario.CellDiff, error) { return scenario.Diff(parent, grown) }},
	} {
		dp, err := orient.plain()
		if err != nil {
			t.Fatal(err)
		}
		dg, err := orient.grown()
		if err != nil {
			t.Fatal(err)
		}
		if rp, rg := renderDiff(dp), renderDiff(dg); len(dp) != 16 || rp != rg {
			t.Fatalf("%s: diffs differ:\nplain %s\ngrown %s", orient.name, rp, rg)
		}
		ap := testing.AllocsPerRun(20, func() { orient.plain() })
		ag := testing.AllocsPerRun(20, func() { orient.grown() })
		if ag > ap+2 {
			t.Fatalf("%s: diff of the scenario with a new member allocates %.0f times, the plain one %.0f", orient.name, ag, ap)
		}
	}
}

// renderDiff prints a diff's cells with their values (nil = absent).
func renderDiff(d []scenario.CellDiff) string {
	var b strings.Builder
	val := func(v *float64) string {
		if v == nil {
			return "nil"
		}
		return fmt.Sprint(*v)
	}
	for _, cd := range d {
		fmt.Fprintf(&b, "%s=%s/%s;", strings.Join(cd.Cell, "|"), val(cd.A), val(cd.B))
	}
	return b.String()
}

// TestScenarioDiffExactCells pins diff output to exactly the edited
// cells, with base values on the unedited side and nil for deletes.
func TestScenarioDiffExactCells(t *testing.T) {
	w := newWorkforce(t)
	m := scenario.NewManager()
	parent, err := m.Create("base", "wf", 1, w.Cube)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := m.Fork(parent.ID(), "")
	if err != nil {
		t.Fatal(err)
	}

	set1 := map[string]string{workload.DimDepartment: "Emp00020", workload.DimPeriod: "Mar", workload.DimAccount: "Acct001"}
	set2 := map[string]string{workload.DimDepartment: "Emp00021", workload.DimPeriod: "Jul", workload.DimAccount: "Acct002"}
	del := map[string]string{workload.DimDepartment: "Emp00022", workload.DimPeriod: "Nov", workload.DimAccount: "Acct003"}
	if _, err := fork.Apply([]scenario.Edit{
		{Op: scenario.OpSet, Cell: set1, Value: 111},
		{Op: scenario.OpSet, Cell: set2, Value: 222},
		{Op: scenario.OpDelete, Cell: del},
	}); err != nil {
		t.Fatal(err)
	}

	d, err := scenario.Diff(parent, fork)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 3 {
		t.Fatalf("diff = %d cells, want 3: %v", len(d), d)
	}
	byCell := map[string]scenario.CellDiff{}
	for _, cd := range d {
		byCell[strings.Join(cd.Cell, "|")] = cd
	}
	check := func(cell map[string]string, wantB *float64) {
		t.Helper()
		addr := leafAddr(t, w.Cube, cell)
		dims := w.Cube.Dims()
		paths := make([]string, len(addr))
		for i, o := range addr {
			paths[i] = dims[i].Path(dims[i].Leaves()[o])
		}
		cd, ok := byCell[strings.Join(paths, "|")]
		if !ok {
			t.Fatalf("cell %v missing from diff %v", paths, d)
		}
		base := w.Cube.Store().Get(addr)
		if cd.A == nil || *cd.A != base {
			t.Fatalf("cell %v: A = %v, want base %v", paths, cd.A, base)
		}
		if wantB == nil {
			if cd.B != nil {
				t.Fatalf("cell %v: B = %v, want deleted (nil)", paths, *cd.B)
			}
		} else if cd.B == nil || *cd.B != *wantB {
			t.Fatalf("cell %v: B = %v, want %v", paths, cd.B, *wantB)
		}
	}
	v1, v2 := 111.0, 222.0
	check(set1, &v1)
	check(set2, &v2)
	check(del, nil)

	// Reverse orientation swaps sides.
	rd, err := scenario.Diff(fork, parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(rd) != 3 {
		t.Fatalf("reverse diff = %d cells, want 3", len(rd))
	}
	for _, cd := range rd {
		if cd.B == nil {
			t.Fatalf("reverse diff: parent side absent for %v", cd.Cell)
		}
	}
}

// TestScenarioHypotheticalMemberRollup introduces a hypothetical new
// account under AllAccounts, writes a cell under it, and checks the
// parent rollup includes it — while the base cube's dimension is
// untouched.
func TestScenarioHypotheticalMemberRollup(t *testing.T) {
	w := newWorkforce(t)
	baseLeaves := w.Cube.DimByName(workload.DimAccount).NumLeaves()
	m := scenario.NewManager()
	s, err := m.Create("bonus-plan", "wf", 1, w.Cube)
	if err != nil {
		t.Fatal(err)
	}

	query := `
SELECT {[Account].[AllAccounts]} ON COLUMNS,
       {[Emp00010]} ON ROWS
FROM [App].[Db]
WHERE ([Period].[Jan], [Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`
	before := queryScenario(t, s, query)

	if _, err := s.Apply([]scenario.Edit{
		{Op: scenario.OpNewMember, Dim: workload.DimAccount, Parent: "AllAccounts", Name: "Bonus"},
		{Op: scenario.OpSet, Cell: map[string]string{
			workload.DimDepartment: "Emp00010",
			workload.DimPeriod:     "Jan",
			workload.DimAccount:    "Bonus",
		}, Value: 500},
	}); err != nil {
		t.Fatal(err)
	}

	after := queryScenario(t, s, query)
	wantDelta := 500.0
	db, da := singleCell(t, before), singleCell(t, after)
	if math.Abs(da-db-wantDelta) > 1e-6 {
		t.Fatalf("AllAccounts rollup: before %v, after %v, want delta %v", db, da, wantDelta)
	}

	// The base cube never sees the hypothetical member.
	if got := w.Cube.DimByName(workload.DimAccount).NumLeaves(); got != baseLeaves {
		t.Fatalf("base Account leaves = %d, want %d (scenario edit leaked)", got, baseLeaves)
	}
	info := s.Info()
	if info.NewMembers != 1 {
		t.Fatalf("NewMembers = %d, want 1", info.NewMembers)
	}

	// A materialized (commit-shape) cube answers identically.
	mat, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	q, err := mdx.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := mdx.NewEvaluator(mat).RunQueryStatsWith(mdx.RunContext{Ctx: context.Background()}, q)
	if err != nil {
		t.Fatal(err)
	}
	if g.CSV() != after {
		t.Fatalf("materialized cube answers differently:\nview:\n%s\nmaterialized:\n%s", after, g.CSV())
	}
}

// singleCell extracts the sole data value from a 1×1 CSV grid.
func singleCell(t testing.TB, csv string) float64 {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	last := lines[len(lines)-1]
	cols := strings.Split(last, ",")
	var v float64
	if _, err := fmt.Sscanf(cols[len(cols)-1], "%g", &v); err != nil {
		t.Fatalf("cannot parse cell from %q: %v", csv, err)
	}
	return v
}

// TestScenarioValidityEdit re-windows a hypothetical employee: the
// member is introduced under a department, claims Jul–Dec, and its
// cells only roll up into months inside the window's instance — the
// base binding is untouched.
func TestScenarioValidityEdit(t *testing.T) {
	w := newWorkforce(t)
	m := scenario.NewManager()
	s, err := m.Create("new-hire", "wf", 1, w.Cube)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]scenario.Edit{
		{Op: scenario.OpNewMember, Dim: workload.DimDepartment, Parent: "Dept00", Name: "EmpHypo"},
		{Op: scenario.OpValidity, Dim: workload.DimDepartment, Member: "EmpHypo", From: "Jul", To: "Dec"},
		{Op: scenario.OpSet, Cell: map[string]string{
			workload.DimDepartment: "EmpHypo",
			workload.DimPeriod:     "Aug",
			workload.DimAccount:    "Acct000",
		}, Value: 7000},
	}); err != nil {
		t.Fatal(err)
	}

	view, _, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	vd := view.DimByName(workload.DimDepartment)
	id, err := vd.Lookup("Dept00/EmpHypo")
	if err != nil {
		t.Fatal(err)
	}
	vb := view.BindingFor(workload.DimDepartment)
	vs := vb.ValiditySet(id)
	for month, want := range map[int]bool{0: false, 5: false, 6: true, 11: true} {
		if vs.Contains(month) != want {
			t.Fatalf("validity(EmpHypo, month %d) = %v, want %v", month, vs.Contains(month), want)
		}
	}

	// Base binding has no such instance.
	if _, err := w.Cube.DimByName(workload.DimDepartment).Lookup("Dept00/EmpHypo"); err == nil {
		t.Fatal("hypothetical member leaked into the base dimension")
	}

	// All 5 × 2 perspective combos still evaluate over the widened view.
	for _, sem := range allSemantics {
		for _, mode := range allModes {
			q := perspectiveQuery(t, w, sem, mode)
			if _, _, err := evalScenario(s, q); err != nil {
				t.Fatalf("%s %s: %v", sem, mode, err)
			}
		}
	}
}

// TestScenarioNewMemberWithoutCells: a batch that only introduces a
// member widens the view's dimension without writing a layer. A query
// whose rows roll up over the new member must see the view's dimensions
// (through the general path, since the base chunk geometry no longer
// spans them) and, the member being empty, answer exactly as the
// general path did before the edit. Before the edit the engine serves
// the query; it folds each sum in its scan's read order where the
// general path folds in leaf order, so the two agree to rounding.
func TestScenarioNewMemberWithoutCells(t *testing.T) {
	w := newWorkforce(t)
	s, err := scenario.NewLocal("new-member", w.Cube)
	if err != nil {
		t.Fatal(err)
	}
	query := func(sem, mode string) string {
		return fmt.Sprintf(`
WITH PERSPECTIVE {(Jan), (Jul)} FOR Department %s %s
SELECT {[Account].Levels(0).Members} ON COLUMNS,
       {CrossJoin({[Dept00]}, {Descendants([Period], 1, SELF_AND_AFTER)})} ON ROWS
FROM [App].[Db]
WHERE ([Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`, sem, mode)
	}
	before := make(map[string]string)
	for _, sem := range allSemantics {
		for _, mode := range allModes {
			if !onEngine(t, s, query(sem, mode)) {
				t.Fatalf("%s %s before the edit: not on the engine", sem, mode)
			}
			served := queryScenario(t, s, query(sem, mode))
			general := queryGeneralPath(t, s, query(sem, mode))
			if !closeCSV(served, general) {
				t.Fatalf("%s %s: the engine answers\n%s\nthe general path\n%s", sem, mode, served, general)
			}
			before[sem+" "+mode] = general
		}
	}
	if _, err := s.Apply([]scenario.Edit{
		{Op: scenario.OpNewMember, Dim: workload.DimDepartment, Parent: "Dept00", Name: "EmpHypo"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, sem := range allSemantics {
		for _, mode := range allModes {
			if onEngine(t, s, query(sem, mode)) {
				t.Fatalf("%s %s after the edit: on the engine, want the general path", sem, mode)
			}
			if got := queryScenario(t, s, query(sem, mode)); got != before[sem+" "+mode] {
				t.Fatalf("%s %s: answer changed after adding an empty member:\n%s\nwas\n%s", sem, mode, got, before[sem+" "+mode])
			}
		}
	}
}

// TestScenarioQueriesRunOnEngine checks that perspective queries over a
// scenario holding cell edits are answered by the engine's chunk scan,
// not the algebra fallback.
func TestScenarioQueriesRunOnEngine(t *testing.T) {
	w := newWorkforce(t)
	m := scenario.NewManager()
	s, err := m.Create("edits", "wf", 1, w.Cube)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]scenario.Edit{
		{Op: scenario.OpSet, Cell: map[string]string{workload.DimDepartment: "Emp00030", workload.DimPeriod: "May", workload.DimAccount: "Acct000"}, Value: 42},
		{Op: scenario.OpDelete, Cell: map[string]string{workload.DimDepartment: "Emp00031", workload.DimPeriod: "Sep", workload.DimAccount: "Acct001"}},
	}); err != nil {
		t.Fatal(err)
	}
	for _, sem := range allSemantics {
		q := perspectiveQuery(t, w, sem, "VISUAL")
		_, chunks, err := evalScenario(s, q)
		if err != nil {
			t.Fatal(err)
		}
		if chunks == 0 {
			t.Fatalf("%s: no chunk read (engine path not taken?)", sem)
		}
	}
}

// TestScenarioApplyAtomic checks that a batch failing halfway leaves
// the scenario untouched: no revision bump, no layers, no dims.
func TestScenarioApplyAtomic(t *testing.T) {
	w := newWorkforce(t)
	s, err := scenario.NewLocal("atomic", w.Cube)
	if err != nil {
		t.Fatal(err)
	}
	q := `
SELECT {[Account].[AllAccounts]} ON COLUMNS, {[Emp00010]} ON ROWS
FROM [App].[Db]
WHERE ([Period].[Jan], [Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`
	before := queryScenario(t, s, q)

	bad := [][]scenario.Edit{
		nil,              // empty batch
		{{Op: "rename"}}, // unknown op
		{
			{Op: scenario.OpNewMember, Dim: workload.DimAccount, Parent: "AllAccounts", Name: "Bonus"},
			{Op: scenario.OpSet, Cell: map[string]string{workload.DimAccount: "NoSuchAccount"}, Value: 1},
		}, // structural edit then failing cell edit
		{{Op: scenario.OpNewMember, Dim: workload.DimDepartment, Parent: "Dept00/Emp00000", Name: "X"}},  // leaf parent
		{{Op: scenario.OpValidity, Dim: workload.DimAccount, Member: "Acct000", From: "Jan", To: "Feb"}}, // no varying binding
		{{Op: scenario.OpNewMember, Dim: workload.DimPeriod, Parent: "Q1", Name: "Jan2"}},                // a binding's parameter dimension
	}
	for i, batch := range bad {
		if _, err := s.Apply(batch); err == nil {
			t.Fatalf("bad batch %d applied without error", i)
		}
	}
	if rev := s.Revision(); rev != 0 {
		t.Fatalf("revision after failed batches = %d, want 0", rev)
	}
	if info := s.Info(); info.Layers != 0 || info.NewMembers != 0 {
		t.Fatalf("failed batches left state behind: %+v", info)
	}
	if after := queryScenario(t, s, q); after != before {
		t.Fatal("failed batches changed query results")
	}
	// The aborted new_member try must not block a clean retry.
	if _, err := s.Apply([]scenario.Edit{
		{Op: scenario.OpNewMember, Dim: workload.DimAccount, Parent: "AllAccounts", Name: "Bonus"},
	}); err != nil {
		t.Fatalf("retry after aborted batch: %v", err)
	}
}

// TestScenarioDuplicateInstanceValidated: a new_member naming an
// existing varying member creates a second instance, valid everywhere
// until a validity edit windows it. A batch that leaves it overlapping
// its sibling is refused whole, the revision unchanged; a batch whose
// validity edits split the windows is accepted — though after its first
// edit the sets still overlap — and its view answers queries.
func TestScenarioDuplicateInstanceValidated(t *testing.T) {
	w := newWorkforce(t)
	s, err := scenario.NewLocal("duplicate", w.Cube)
	if err != nil {
		t.Fatal(err)
	}
	dup := scenario.Edit{Op: scenario.OpNewMember, Dim: workload.DimDepartment, Parent: "Dept01", Name: "Emp00030"}
	if _, err := s.Apply([]scenario.Edit{dup}); err == nil || !strings.Contains(err.Error(), "overlapping validity sets") {
		t.Fatalf("duplicate instance without a window: err = %v", err)
	}
	if info := s.Info(); info.Revision != 0 || info.NewMembers != 0 {
		t.Fatalf("refused batch changed the scenario: %+v", info)
	}
	rev, err := s.Apply([]scenario.Edit{
		dup,
		// Dept01/Emp00030 claims the whole year, then the home instance
		// claims the first half back.
		{Op: scenario.OpValidity, Dim: workload.DimDepartment, Member: "Dept01/Emp00030", From: "Jan", To: "Dec"},
		{Op: scenario.OpValidity, Dim: workload.DimDepartment, Member: "Dept00/Emp00030", From: "Jan", To: "Jun"},
	})
	if err != nil || rev != 1 {
		t.Fatalf("windowed duplicate: rev %d, err %v", rev, err)
	}
	view, _, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range view.Bindings() {
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	vd := view.DimByName(workload.DimDepartment)
	b := view.BindingFor(workload.DimDepartment)
	for path, months := range map[string][2]int{"Dept00/Emp00030": {0, 5}, "Dept01/Emp00030": {6, 11}} {
		vs := b.ValiditySet(vd.MustLookup(path))
		if vs.Len() != 6 || vs.Min() != months[0] || vs.Max() != months[1] {
			t.Fatalf("%s valid at %v, want months %d..%d", path, vs, months[0], months[1])
		}
	}
	for _, mode := range allModes {
		if _, _, err := evalScenario(s, perspectiveQuery(t, w, "DYNAMIC FORWARD", mode)); err != nil {
			t.Fatalf("%s query over the split windows: %v", mode, err)
		}
	}
}

// TestScenarioConcurrentForkEditQuery races editors, forkers, queriers
// and differs over one scenario tree. Run under -race this is the
// subsystem's thread-safety proof: snapshots handed to queries must
// never observe a torn layer slice or dimension set.
func TestScenarioConcurrentForkEditQuery(t *testing.T) {
	w := newWorkforce(t)
	m := scenario.NewManager()
	parent, err := m.Create("root", "wf", 1, w.Cube)
	if err != nil {
		t.Fatal(err)
	}
	query := perspectiveQuery(t, w, "DYNAMIC FORWARD", "VISUAL")

	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(4)
		// Editor: keeps appending cell and structural edits to the parent.
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_, err := parent.Apply([]scenario.Edit{
					{Op: scenario.OpNewMember, Dim: workload.DimAccount, Parent: "AllAccounts", Name: fmt.Sprintf("Acct-g%d-i%d", g, i)},
					{Op: scenario.OpSet, Cell: map[string]string{
						workload.DimDepartment: fmt.Sprintf("Emp%05d", 10+g),
						workload.DimPeriod:     "Jun",
						workload.DimAccount:    "Acct000",
					}, Value: float64(g*100 + i)},
				})
				if err != nil {
					errs <- fmt.Errorf("editor %d: %w", g, err)
					return
				}
			}
		}(g)
		// Forker: forks the parent and edits the fork.
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f, err := m.Fork(parent.ID(), "")
				if err != nil {
					errs <- fmt.Errorf("forker %d: %w", g, err)
					return
				}
				if _, err := f.Apply([]scenario.Edit{{Op: scenario.OpSet, Cell: map[string]string{
					workload.DimDepartment: fmt.Sprintf("Emp%05d", 20+g),
					workload.DimPeriod:     "Oct",
					workload.DimAccount:    "Acct001",
				}, Value: float64(i)}}); err != nil {
					errs <- fmt.Errorf("forker %d edit: %w", g, err)
					return
				}
				if _, err := scenario.Diff(parent, f); err != nil {
					errs <- fmt.Errorf("forker %d diff: %w", g, err)
					return
				}
			}
		}(g)
		// Querier: evaluates the parent's live view.
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, _, err := evalScenario(parent, query); err != nil {
					errs <- fmt.Errorf("querier %d: %w", g, err)
					return
				}
			}
		}(g)
		// Lister: walks manager state.
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, info := range m.List() {
					if info.ID == "" {
						errs <- fmt.Errorf("lister %d: empty id", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if rev := parent.Revision(); rev != 4*iters {
		t.Fatalf("parent revision = %d, want %d", rev, 4*iters)
	}
}

// TestScenarioForkEditDiffRunEncodedBase reruns the fork-and-edit flow
// with the base cube's chunks force run-encoded: every query grid is
// bit-identical to a plain-store twin across all 5 semantics × 2 modes,
// diff reports exactly the divergent cell, and the base chunks stay
// run-encoded throughout — scenario edits land in layers and must never
// trigger a copy-on-write decode of the base.
func TestScenarioForkEditDiffRunEncodedBase(t *testing.T) {
	wPlain := newWorkforce(t)
	wRle := newWorkforce(t) // same config + seed → identical cube
	st := wRle.Cube.Store().(*chunk.Store)
	if n := st.ForceRunEncodeAll(); n == 0 {
		t.Fatal("nothing run-encoded")
	}

	m := scenario.NewManager()
	plain, err := m.Create("plain", "wf", 1, wPlain.Cube)
	if err != nil {
		t.Fatal(err)
	}
	rle, err := m.Create("rle", "wf", 1, wRle.Cube)
	if err != nil {
		t.Fatal(err)
	}
	edit := map[string]string{
		workload.DimDepartment: "Emp00020",
		workload.DimPeriod:     "Mar",
		workload.DimAccount:    "Acct001",
	}
	for _, s := range []*scenario.Scenario{plain, rle} {
		if _, err := s.Apply([]scenario.Edit{{Op: scenario.OpSet, Cell: edit, Value: 4242}}); err != nil {
			t.Fatal(err)
		}
	}

	for _, sem := range allSemantics {
		for _, mode := range allModes {
			q := perspectiveQuery(t, wPlain, sem, mode)
			pg := queryScenario(t, plain, q)
			rg := queryScenario(t, rle, perspectiveQuery(t, wRle, sem, mode))
			if pg != rg {
				t.Fatalf("%s %s: run-encoded base diverged from plain\nplain:\n%s\nrle:\n%s", sem, mode, pg, rg)
			}
		}
	}

	// Fork-and-edit: diff is cell-exact against the parent.
	fork, err := m.Fork(rle.ID(), "rle-fork")
	if err != nil {
		t.Fatal(err)
	}
	divergent := map[string]string{
		workload.DimDepartment: "Emp00021",
		workload.DimPeriod:     "Jul",
		workload.DimAccount:    "Acct002",
	}
	if _, err := fork.Apply([]scenario.Edit{{Op: scenario.OpSet, Cell: divergent, Value: 777}}); err != nil {
		t.Fatal(err)
	}
	d, err := scenario.Diff(rle, fork)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 {
		t.Fatalf("diff = %d cells, want exactly the divergent cell: %v", len(d), d)
	}
	if d[0].B == nil || *d[0].B != 777 {
		t.Fatalf("diff B side = %v, want 777", d[0].B)
	}
	base := wRle.Cube.Store().Get(leafAddr(t, wRle.Cube, divergent))
	if d[0].A == nil || *d[0].A != base {
		t.Fatalf("diff A side = %v, want base value %v", d[0].A, base)
	}

	// The base store still holds only run-encoded chunks.
	for _, id := range st.ChunkIDs() {
		if c := st.ReadChunk(id); c != nil && c.Rep() != chunk.RunEncoded {
			t.Fatalf("base chunk %d decoded to %v during scenario work", id, c.Rep())
		}
	}
}

// TestScenarioMaterializeMatchesView: the commit-shape flat copy holds
// exactly the cells the layered view resolves one at a time, over plain
// and run-encoded bases and three edit batches (sets, a delete, a newer
// batch overwriting an older one); on the run-encoded base the chunks no
// layer touches are copied as stored, not expanded; and the copy is
// detached — a later edit to the scenario does not reach it.
func TestScenarioMaterializeMatchesView(t *testing.T) {
	for _, encode := range []bool{false, true} {
		w := newWorkforce(t)
		st := w.Cube.Store().(*chunk.Store)
		if encode && st.ForceRunEncodeAll() == 0 {
			t.Fatal("nothing run-encoded")
		}
		s, err := scenario.NewManager().Create("s", "wf", 1, w.Cube)
		if err != nil {
			t.Fatal(err)
		}
		cell := func(emp, month, acct string) map[string]string {
			return map[string]string{workload.DimDepartment: emp, workload.DimPeriod: month, workload.DimAccount: acct}
		}
		batches := [][]scenario.Edit{
			{{Op: scenario.OpSet, Cell: cell("Emp00020", "Mar", "Acct001"), Value: 4242}, {Op: scenario.OpSet, Cell: cell("Emp00021", "Jul", "Acct002"), Value: 7}},
			{{Op: scenario.OpDelete, Cell: cell("Emp00021", "Jul", "Acct002")}, {Op: scenario.OpDelete, Cell: cell("Emp00022", "Jan", "Acct000")}},
			{{Op: scenario.OpSet, Cell: cell("Emp00020", "Mar", "Acct001"), Value: 4343}},
		}
		for _, b := range batches {
			if _, err := s.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		view, _, err := s.View()
		if err != nil {
			t.Fatal(err)
		}
		mat, err := s.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		flat := mat.Store().(*chunk.Store)
		n := 0
		view.Store().NonNull(func(addr []int, v float64) bool {
			n++
			if got := flat.Get(addr); got != v {
				t.Errorf("encode=%v: materialized cell %v = %v, view resolves %v", encode, addr, got, v)
			}
			return true
		})
		if flat.Len() != n {
			t.Fatalf("encode=%v: materialized cube holds %d cells, view resolves %d", encode, flat.Len(), n)
		}
		if got := flat.Get(leafAddr(t, w.Cube, cell("Emp00020", "Mar", "Acct001"))); got != 4343 {
			t.Fatalf("encode=%v: newest write reads %v, want 4343", encode, got)
		}
		if encode {
			kept := 0
			for _, id := range flat.ChunkIDs() {
				if flat.PeekChunk(id).Rep() == chunk.RunEncoded {
					kept++
				}
			}
			if kept == 0 {
				t.Fatal("no untouched chunk of the run-encoded base kept its representation")
			}
		}
		if _, err := s.Apply([]scenario.Edit{{Op: scenario.OpSet, Cell: cell("Emp00020", "Mar", "Acct001"), Value: 1}}); err != nil {
			t.Fatal(err)
		}
		if got := flat.Get(leafAddr(t, w.Cube, cell("Emp00020", "Mar", "Acct001"))); got != 4343 {
			t.Fatalf("encode=%v: an edit after Materialize reached the flat copy (%v)", encode, got)
		}
	}
}
