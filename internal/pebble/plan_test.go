package pebble_test

import (
	"reflect"
	"testing"

	"whatifolap/internal/algebra"
	"whatifolap/internal/core"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/pebble"
	"whatifolap/internal/perspective"
	"whatifolap/internal/workload"
)

var (
	semantics = []perspective.Semantics{perspective.Static, perspective.Forward,
		perspective.ExtendedForward, perspective.Backward, perspective.ExtendedBackward}
	modes = []perspective.Mode{perspective.NonVisual, perspective.Visual}
	// vwChunkDims is the validity-window chunk shape of BENCH_rle_scan
	// and the end-to-end benchmark's plan-heavy workload: year-deep,
	// one-account chunks, so the merge graph has a group per (account,
	// scenario).
	vwChunkDims = []int{64, 12, 1, 1, 1, 1, 1}
)

func workforceEngine(t testing.TB, cfg workload.WorkforceConfig) (*core.Engine, *workload.Workforce) {
	t.Helper()
	w, err := workload.NewWorkforce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(w.Cube, workload.DimDepartment)
	if err != nil {
		t.Fatal(err)
	}
	return e, w
}

// checkAgainstOracle rebuilds the merge graph from the plan's adjacency
// and requires the map pebbler to reproduce the plan's read schedule
// and peak.
func checkAgainstOracle(t *testing.T, name string, plan *core.PhysicalPlan) {
	t.Helper()
	want := pebble.OracleSchedule(plan.Schedule, plan.Neighbors)
	if !reflect.DeepEqual(plan.Schedule, want.Order) {
		t.Fatalf("%s: schedule differs from the oracle's\n got %v\nwant %v", name, plan.Schedule, want.Order)
	}
	if plan.Stats.PeakResidentChunks != want.Peak {
		t.Fatalf("%s: peak %d, oracle %d", name, plan.Stats.PeakResidentChunks, want.Peak)
	}
}

// TestPlanScheduleMatchesOracle is the plan-level half of the dense
// rewrite's contract: over the paper's warehouse and the workforce cube
// in its default and validity-window chunk shapes, under every
// semantics and mode, the planner reads chunks in the order — and at
// the peak — the map pebbler gives on the same merge graph.
func TestPlanScheduleMatchesOracle(t *testing.T) {
	paper, err := core.New(paperdata.ChunkedWarehouse(nil), "Organization")
	if err != nil {
		t.Fatal(err)
	}
	tiny, wTiny := workforceEngine(t, workload.ConfigTiny())
	vwCfg := workload.ConfigTiny()
	vwCfg.FlatMonths, vwCfg.ChunkDims = true, vwChunkDims
	vw, wVW := workforceEngine(t, vwCfg)

	for _, c := range []struct {
		name    string
		eng     *core.Engine
		members []string
		persp   []int
	}{
		{"paper", paper, nil, []int{paperdata.Feb, paperdata.Apr}},
		{"workforce", tiny, wTiny.Changing, []int{0, 3, 6, 9}},
		{"workforce-vw", vw, wVW.Changing, []int{0, 3, 6, 9}},
	} {
		edges := 0
		for _, sem := range semantics {
			for _, mode := range modes {
				plan, err := c.eng.PlanPerspective(core.PerspectiveQuery{
					Members: c.members, Perspectives: c.persp, Sem: sem, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, c.name+" "+sem.String(), plan)
				edges += plan.Stats.MergeEdges
			}
		}
		if edges == 0 {
			t.Fatalf("%s: no plan had a merge edge; the comparison is vacuous", c.name)
		}
	}
	plan, err := paper.PlanChanges(core.ChangesQuery{Changes: []algebra.Change{
		{Member: "Lisa", OldParent: "FTE", NewParent: "PTE", T: paperdata.Apr},
		{Member: "Tom", OldParent: "PTE", NewParent: "Contractor", T: paperdata.Mar},
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, "paper WITH CHANGES", plan)
}

// vwGraph is the merge graph of a plan-heavy query: 30 changing
// employees of the default workforce in the validity-window shape under
// extended forward semantics — about 1 280 chunks and 2 360 merge edges
// in 20 groups.
func vwGraph(t testing.TB) (*pebble.Graph, *core.PhysicalPlan) {
	t.Helper()
	cfg := workload.ConfigDefault()
	cfg.FlatMonths, cfg.ChunkDims = true, vwChunkDims
	e, w := workforceEngine(t, cfg)
	var scope []string
	for i := 0; i < len(w.Changing); i += len(w.Changing) / 30 {
		scope = append(scope, w.Changing[i])
	}
	plan, err := e.PlanPerspective(core.PerspectiveQuery{Members: scope,
		Perspectives: []int{0, 3, 6, 9}, Sem: perspective.ExtendedForward})
	if err != nil {
		t.Fatal(err)
	}
	g := pebble.NewGraph()
	for _, id := range plan.Schedule {
		g.AddNode(id)
	}
	for id, nbs := range plan.Neighbors {
		for _, nb := range nbs {
			g.AddEdge(id, nb)
		}
	}
	return g, plan
}

// TestPebbleAllocsIndependentOfSize pins what keeps the pebbler off the
// critical path on this host, where timing asserts are noise: no map,
// and no allocation per node or per step — the scratch is a handful of
// slices whatever the graph's size.
func TestPebbleAllocsIndependentOfSize(t *testing.T) {
	small := pebble.NewGraph()
	for _, e := range [][2]int{{1, 5}, {1, 9}, {1, 10}, {3, 5}, {7, 10}, {6, 9}} { // paper Fig. 9
		small.AddEdge(e[0], e[1])
	}
	big, plan := vwGraph(t)
	if big.NumNodes() < 1000 || big.NumEdges() < 2000 {
		t.Fatalf("vw merge graph has %d nodes, %d edges; want the plan-heavy size", big.NumNodes(), big.NumEdges())
	}
	t.Logf("vw merge graph: %d nodes, %d edges, %d groups", big.NumNodes(), big.NumEdges(), len(plan.Groups))
	checkAgainstOracle(t, "vw", plan)

	pebbleAllocs := func(g *pebble.Graph) float64 {
		return testing.AllocsPerRun(10, func() { pebble.HeuristicPebble(g) })
	}
	verifyAllocs := func(g *pebble.Graph, order []int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := pebble.VerifySchedule(g, order); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, b := pebbleAllocs(small), pebbleAllocs(big); s != b || b > 6 {
		t.Fatalf("HeuristicPebble allocates %v times on 7 nodes, %v on %d; want the same few", s, b, big.NumNodes())
	}
	smallOrder := pebble.HeuristicPebble(small).Order
	if s, b := verifyAllocs(small, smallOrder), verifyAllocs(big, plan.Schedule); s != b || b > 6 {
		t.Fatalf("VerifySchedule allocates %v times on 7 nodes, %v on %d; want the same few", s, b, big.NumNodes())
	}
}

func BenchmarkHeuristicPebble(b *testing.B) {
	g, _ := vwGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pebble.HeuristicPebble(g)
	}
}
