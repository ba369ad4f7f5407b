package scenario_test

import (
	"fmt"
	"testing"

	"whatifolap/internal/dimension"
	"whatifolap/internal/mdx"
	"whatifolap/internal/scenario"
	"whatifolap/internal/workload"
)

// TestScenarioPlanMemoValidityEdit: the engine keeps Φ's relocation rows
// with the binding they were computed from. A scenario's validity edit
// clones the bindings, so a query over the scenario plans from the
// edited validity sets — its answer is a fresh binding's, not the base
// cube's — while the base binding's memo, warm for the same
// hypothetical, is neither read nor replaced.
func TestScenarioPlanMemoValidityEdit(t *testing.T) {
	w := newWorkforce(t)
	dept := w.Cube.DimByName(workload.DimDepartment)
	b := w.Cube.BindingFor(workload.DimDepartment)
	inst := dept.Path(b.InstanceAt(w.Changing[0], 0))
	query := fmt.Sprintf(`
WITH PERSPECTIVE {(Jan)} FOR Department DYNAMIC FORWARD VISUAL
SELECT {[Account].Levels(0).Members} ON COLUMNS,
       {CrossJoin({[%s]}, {[Period].Levels(0).Members})} ON ROWS
FROM [App].[Db]
WHERE ([Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`, inst)
	run := func(ev *mdx.Evaluator) string {
		t.Helper()
		g, err := ev.Run(query)
		if err != nil {
			t.Fatal(err)
		}
		return g.CSV()
	}
	base := run(mdx.NewEvaluator(w.Cube))
	if run(mdx.NewEvaluator(w.Cube)) != base {
		t.Fatal("a warm memo changed the base answer")
	}
	baseIndex := b.Derived()
	if baseIndex == nil {
		t.Fatal("the base binding kept no planning index")
	}

	s, err := scenario.NewLocal("memo", w.Cube)
	if err != nil {
		t.Fatal(err)
	}
	// The January instance claims the year: the employee no longer
	// moves, so forward from January relocates nothing into its row.
	if _, err := s.Apply([]scenario.Edit{{Op: scenario.OpValidity, Dim: workload.DimDepartment, Member: inst, From: "Jan", To: "Dec"}}); err != nil {
		t.Fatal(err)
	}
	got := queryScenario(t, s, query)
	view, _, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	vb := view.BindingFor(workload.DimDepartment)
	if vb == b || vb.Derived() == nil || vb.Derived() == baseIndex {
		t.Fatal("the scenario query did not plan from its own binding's index")
	}
	if b.Derived() != baseIndex {
		t.Fatal("the scenario query replaced the base binding's index")
	}
	// The expected answer: the same view over copies of its bindings,
	// which hold no index.
	var fresh []*dimension.Binding
	for _, vb := range view.Bindings() {
		fresh = append(fresh, vb.Clone(vb.Varying, vb.Param))
	}
	want := run(mdx.NewEvaluator(view.Derive(view.Store(), view.Dims(), fresh)))
	if got != want {
		t.Fatalf("scenario answer:\n%s\nwant (fresh binding):\n%s", got, want)
	}
	if got == base {
		t.Fatalf("the validity edit did not change the answer:\n%s", got)
	}
}
