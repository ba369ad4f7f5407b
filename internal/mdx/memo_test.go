package mdx

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"whatifolap/internal/chunk"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/result"
	"whatifolap/internal/workload"
)

// TestPlanMemoServedGrids: a served grid planned from a warm memo — Φ's
// relocation rows filled by other queries over the same binding — is
// bit-identical to the grid planned with Φ evaluated afresh, and EXPLAIN
// ANALYZE says which it was ("plan: cached" / "plan: computed"). Random
// grids over the paper, retail and workforce cubes, five semantics × two
// modes.
func TestPlanMemoServedGrids(t *testing.T) {
	sems := []perspective.Semantics{perspective.Static, perspective.Forward, perspective.Backward,
		perspective.ExtendedForward, perspective.ExtendedBackward}
	for _, fc := range footprintCubes {
		c := fc.build(t)
		ev := NewEvaluator(c)
		b := c.BindingFor(fc.varying)
		g := &queryGen{rng: rand.New(rand.NewSource(4700)), c: c, varying: c.DimIndex(fc.varying), param: b.Param}
		var srcs []string
		for k := 0; k < 3; k++ {
			for _, sem := range sems {
				for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
					srcs = append(srcs, g.perspective(sem, mode)+g.selectText())
				}
			}
		}
		analyze := func(src string) (string, *result.Grid) {
			t.Helper()
			text, grid, _, err := ev.ExplainAnalyze(RunContext{}, MustParse(src))
			if err != nil {
				t.Fatalf("%s: %v\n%s", fc.name, err, src)
			}
			return text, grid
		}
		cold := make([]*result.Grid, len(srcs))
		for i, src := range srcs {
			b.SetDerived(nil) // no memo: Φ is evaluated for this query
			text, grid := analyze(src)
			if !strings.Contains(text, "plan: computed\n") {
				t.Fatalf("%s: a query over a binding without memo:\n%s", fc.name, text)
			}
			cold[i] = grid
		}
		// Fill the memo with every hypothetical, then serve each query
		// from it, in reverse order.
		for _, src := range srcs {
			analyze(src)
		}
		for i := len(srcs) - 1; i >= 0; i-- {
			text, grid := analyze(srcs[i])
			if !strings.Contains(text, "plan: cached\n") {
				t.Fatalf("%s: a query over a warm memo:\n%s", fc.name, text)
			}
			sameGrid(t, fmt.Sprintf("%s query %d\n%s", fc.name, i, srcs[i]), grid, cold[i])
		}
	}
}

// TestExplainFootprintCountsBaseOnlyChunks: the footprint line counts
// the chunks the query reads, relocated and base-only apart. A STATIC
// NONVISUAL department roll-up relocates nothing, and every chunk it
// reads is a base-only one.
func TestExplainFootprintCountsBaseOnlyChunks(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(w.Cube)
	q := MustParse(`WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department STATIC NONVISUAL
SELECT {[Period].Levels(1).Members} ON COLUMNS, {[Department].Levels(1).Members} ON ROWS
FROM [App].[Db] WHERE ([Account].[Acct001], [Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`)
	_, stats, err := ev.RunQueryStatsWith(RunContext{}, q)
	if err != nil {
		t.Fatal(err)
	}
	text, err := ev.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChunksRead == 0 || stats.RelevantChunks != 0 {
		t.Fatalf("the roll-up read %d chunks, %d relevant: want base-only reads alone", stats.ChunksRead, stats.RelevantChunks)
	}
	source := len(w.Cube.Store().(*chunk.Store).ChunkIDs())
	want := fmt.Sprintf("; 0 relocated and %d base-only of %d source chunks on the grid\n", stats.ChunksRead, source)
	if !strings.Contains(text, want) {
		t.Fatalf("footprint line does not count the %d base-only chunks:\n%s", stats.ChunksRead, text)
	}
}

// TestPlanMemoLineOnPerspectivePlansOnly: EXPLAIN ANALYZE prints "plan:
// cached" / "plan: computed" for a perspective plan, which consults Φ,
// and neither for a WITH CHANGES plan, which evaluates no Φ — its plan
// span carries no phi_cached, so the memo counters skip it too.
func TestPlanMemoLineOnPerspectivePlansOnly(t *testing.T) {
	ev := NewEvaluator(paperdata.ChunkedWarehouse(nil))
	for _, tc := range []struct {
		src, want string
	}{
		{`WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
SELECT {[Time].[Qtr2]} ON COLUMNS, {[PTE], [FTE]} ON ROWS
FROM Warehouse WHERE ([Location].[NY], [Measures].[Salary])`, "plan: computed\n"},
		{`WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], [Apr])} VISUAL
SELECT {[Time].[Qtr2]} ON COLUMNS, {[PTE], [FTE]} ON ROWS
FROM Warehouse WHERE ([Location].[NY], [Measures].[Salary])`, ""},
	} {
		text, _, _, err := ev.ExplainAnalyze(RunContext{}, MustParse(tc.src))
		if err != nil {
			t.Fatalf("%v\n%s", err, tc.src)
		}
		if !strings.Contains(text, "  plan ") {
			t.Fatalf("no plan span: the query did not run on the engine:\n%s", text)
		}
		for _, line := range []string{"plan: cached\n", "plan: computed\n"} {
			if got := strings.Contains(text, line); got != (line == tc.want) {
				t.Fatalf("%q printed: %v, want %v:\n%s", strings.TrimSpace(line), got, line == tc.want, text)
			}
		}
		if strings.Contains(text, "phi_cached") != (tc.want != "") {
			t.Fatalf("phi_cached on the plan span of\n%s\n%s", tc.src, text)
		}
	}
}
