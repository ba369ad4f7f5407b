package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"whatifolap/internal/algebra"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/trace"
	"whatifolap/internal/workload"
)

// vwChunkDims is the validity-window chunk shape (BENCH_rle_scan, the
// end-to-end benchmark's plan-heavy workload): year-deep, one-account
// chunks.
var vwChunkDims = []int{64, 12, 1, 1, 1, 1, 1}

func workforceEngine(t testing.TB, cfg workload.WorkforceConfig) (*Engine, *workload.Workforce) {
	t.Helper()
	w, err := workload.NewWorkforce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(w.Cube, workload.DimDepartment)
	if err != nil {
		t.Fatal(err)
	}
	return e, w
}

// TestPlanDeterministic builds every plan twice and requires identical
// values — schedule, groups, Neighbors lists, the executor's dense
// tables — so nothing in planning follows map iteration order. Groups
// must come in ascending masked-ID order.
func TestPlanDeterministic(t *testing.T) {
	tiny, wTiny := workforceEngine(t, workload.ConfigTiny())
	vwCfg := workload.ConfigTiny()
	vwCfg.FlatMonths, vwCfg.ChunkDims = true, vwChunkDims
	vw, wVW := workforceEngine(t, vwCfg)

	check := func(name string, e *Engine, build func() (*PhysicalPlan, error)) {
		t.Helper()
		var plans [2]*PhysicalPlan
		for i := range plans {
			p, err := build()
			if err != nil {
				t.Fatal(err)
			}
			// The one wall-clock field, and whether the binding's memo held
			// the hypothetical (the second build finds the first's rows).
			p.Stats.PlanMs, p.PhiCached = 0, false
			plans[i] = p
		}
		if !reflect.DeepEqual(plans[0], plans[1]) {
			t.Fatalf("%s: two builds of one query differ", name)
		}
		g := e.store.Geometry()
		last := -1
		for gi, mg := range plans[0].Groups {
			rest := slices.Clone(mg.Rest)
			rest[e.vi] = 0
			id := g.CanonicalID(rest)
			if id <= last {
				t.Fatalf("%s: group %d has masked ID %d after %d", name, gi, id, last)
			}
			last = id
		}
	}
	for _, c := range []struct {
		name    string
		eng     *Engine
		members []string
		persp   []int
	}{
		{"paper", newEngine(t), nil, []int{paperdata.Feb, paperdata.Apr}},
		{"workforce", tiny, wTiny.Changing, []int{0, 3, 6, 9}},
		{"workforce-vw", vw, wVW.Changing, []int{0, 3, 6, 9}},
	} {
		for _, sem := range allSemantics {
			for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
				q := PerspectiveQuery{Members: c.members, Perspectives: c.persp, Sem: sem, Mode: mode}
				check(c.name+" "+sem.String(), c.eng, func() (*PhysicalPlan, error) { return c.eng.PlanPerspective(q) })
			}
		}
	}
	paper := newEngine(t)
	check("paper WITH CHANGES", paper, func() (*PhysicalPlan, error) {
		return paper.PlanChanges(ChangesQuery{Changes: []algebra.Change{
			{Member: "Lisa", OldParent: "FTE", NewParent: "PTE", T: paperdata.Apr},
			{Member: "Tom", OldParent: "PTE", NewParent: "Contractor", T: paperdata.Mar},
		}})
	})
}

// BenchmarkBuildPlan plans a plan-heavy query: 30 changing employees of
// the default workforce in the validity-window shape under extended
// forward semantics (about 1 280 relevant chunks, 2 360 merge edges).
func BenchmarkBuildPlan(b *testing.B) {
	cfg := workload.ConfigDefault()
	cfg.FlatMonths, cfg.ChunkDims = true, vwChunkDims
	e, w := workforceEngine(b, cfg)
	var scope []string
	for i := 0; i < len(w.Changing); i += len(w.Changing) / 30 {
		scope = append(scope, w.Changing[i])
	}
	q := PerspectiveQuery{Members: scope, Perspectives: []int{0, 3, 6, 9}, Sem: perspective.ExtendedForward}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PlanPerspective(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanSubStageSpans checks the planning sub-stage spans a traced
// query records: four children of "plan", in order, tiling it without
// gaps — so their shares say which planning step a slow plan spent its
// time in — and recorded without allocating, tracing on or off.
func TestPlanSubStageSpans(t *testing.T) {
	e, w := workforceEngine(t, workload.ConfigTiny())
	q := PerspectiveQuery{Members: w.Changing, Perspectives: []int{0, 3, 6, 9}, Sem: perspective.Forward}
	tr := trace.New(0)
	root := tr.Start(trace.SpanRef{}, "eval")
	ctx := trace.WithSpan(trace.NewContext(context.Background(), tr), root)
	if _, err := e.ExecPerspectiveWith(ExecContext{Ctx: ctx}, q); err != nil {
		t.Fatal(err)
	}
	root.End()
	var plan trace.Span
	var stages []trace.Span
	for _, s := range tr.Spans() {
		switch {
		case s.Name == "plan":
			plan = s
		case len(s.Name) > 5 && s.Name[:5] == "plan.":
			stages = append(stages, s)
		}
	}
	if len(stages) != len(planStages) {
		t.Fatalf("%d plan sub-stage spans, want %d", len(stages), len(planStages))
	}
	at := plan.Start
	for i, s := range stages {
		if s.Name != planStages[i] || s.Parent != plan.ID || s.Start != at || s.End < s.Start {
			t.Fatalf("sub-stage %d = %+v, want %s under span %d starting at %v", i, s, planStages[i], plan.ID, at)
		}
		at = s.End
	}
	if at > plan.End {
		t.Fatalf("sub-stages end at %v, after the plan span's %v", at, plan.End)
	}

	p, err := e.PlanPerspective(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*trace.Trace{nil, trace.New(1 << 12)} {
		if allocs := testing.AllocsPerRun(100, func() { recordPlanSpan(rec, trace.SpanRef{}, 0, p, true) }); allocs != 0 {
			t.Fatalf("recording the plan spans allocates %v times (tracing on: %v)", allocs, rec != nil)
		}
	}
}
