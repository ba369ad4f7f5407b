package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"whatifolap/internal/bitset"
	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/workload"
)

// memoCube is one cube of the memo tests' corpus, with its varying
// dimension.
type memoCube struct {
	name, varying string
	build         func(t testing.TB) *cube.Cube
}

var memoCubes = []memoCube{
	{"paper", "Organization", func(testing.TB) *cube.Cube { return paperdata.ChunkedWarehouse(nil) }},
	{"workforce", workload.DimDepartment, func(t testing.TB) *cube.Cube {
		w, err := workload.NewWorkforce(workload.ConfigTiny())
		if err != nil {
			t.Fatal(err)
		}
		return w.Cube
	}},
	{"retail", "Product", func(t testing.TB) *cube.Cube {
		rt, err := workload.NewRetailByTime(workload.ConfigRetail())
		if err != nil {
			t.Fatal(err)
		}
		extents := make([]int, rt.Cube.NumDims())
		for i := range extents {
			extents[i] = rt.Cube.Dim(i).NumLeaves()
		}
		st := chunk.NewStore(chunk.MustGeometry(extents, []int{4, 5, 2, 3}))
		rt.Cube.Store().NonNull(func(addr []int, v float64) bool { st.Set(addr, v); return true })
		return rt.Cube.Derive(st, rt.Cube.Dims(), rt.Cube.Bindings())
	}},
}

// freshEngine returns an engine over c whose bindings are deep copies,
// so it shares no planning index or memo with any engine before it.
func freshEngine(t testing.TB, c *cube.Cube, varying string) *Engine {
	t.Helper()
	var bs []*dimension.Binding
	for _, b := range c.Bindings() {
		bs = append(bs, b.Clone(b.Varying, b.Param))
	}
	e, err := New(c.Derive(c.Store(), c.Dims(), bs), varying)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// referenceTarget builds a query's relocation table as the engine did
// before the memo: Φ over the scope's named members that are no fixed
// point, one instance lookup per (member, leaf), then buildPlan's
// pruning of rows that feed nothing.
func referenceTarget(t *testing.T, e *Engine, names []string, q PerspectiveQuery, fp Footprint) map[int][]int {
	t.Helper()
	var moved []string
	if !fp.empty(e.vi) && !fp.empty(e.pi) {
		for _, name := range names {
			if !perspective.FixedPoint(e.binding, name) {
				moved = append(moved, name)
			}
		}
	}
	res, err := perspective.ApplyMembers(q.Sem, e.binding, q.Perspectives, moved)
	if err != nil {
		t.Fatal(err)
	}
	d, nT := e.binding.Varying, e.binding.Param.NumLeaves()
	rows := map[int][]int{}
	for _, name := range moved {
		insts := d.Instances(name)
		for tl := 0; tl < nT; tl++ {
			src := e.binding.InstanceAt(name, tl)
			if src == dimension.None || !fp.has(e.pi, tl) {
				continue
			}
			so := d.Member(src).LeafOrdinal
			if rows[so] == nil {
				rows[so] = make([]int, nT)
				for i := range rows[so] {
					rows[so][i] = -1
				}
			}
			for _, inst := range insts {
				if vs := res.VSOut[inst]; vs != nil && vs.Contains(tl) {
					if o := d.Member(inst).LeafOrdinal; fp.has(e.vi, o) {
						rows[so][tl] = o
					}
					break
				}
			}
		}
	}
	for so, row := range rows {
		if !slices.ContainsFunc(row, func(o int) bool { return o >= 0 }) {
			delete(rows, so)
		}
	}
	return rows
}

// targetRows returns a plan's relocation table as source → row.
func targetRows(p *PhysicalPlan) map[int][]int {
	rows := map[int][]int{}
	p.Target.each(func(src int, row []int) { rows[src] = slices.Clone(row) })
	return rows
}

// samePlan fails unless two plans of one query agree in every field but
// the planning wall time and whether the memo held the hypothetical.
func samePlan(t *testing.T, label string, got, want *PhysicalPlan) {
	t.Helper()
	if !reflect.DeepEqual(targetRows(got), targetRows(want)) {
		t.Fatalf("%s: relocation rows differ:\n got %v\nwant %v", label, targetRows(got), targetRows(want))
	}
	gs, ws := got.Stats, want.Stats
	gs.PlanMs, ws.PlanMs = 0, 0
	switch {
	case !slices.Equal(got.Scoped, want.Scoped):
		t.Fatalf("%s: scoped leaves differ", label)
	case !slices.Equal(got.Schedule, want.Schedule):
		t.Fatalf("%s: schedule %v, want %v", label, got.Schedule, want.Schedule)
	case !reflect.DeepEqual(got.Groups, want.Groups):
		t.Fatalf("%s: merge groups differ", label)
	case gs != ws:
		t.Fatalf("%s: stats %+v, want %+v", label, gs, ws)
	}
}

// memoCase is one query of the equivalence corpus.
type memoCase struct {
	names []string // the scope by name (nil: the default scope)
	q     PerspectiveQuery
	fp    Footprint
}

// memoCases draws the corpus of one cube: five semantics × perspective
// sets of 1–4 points (at most 20 hypotheticals, under phiMemoCap), each
// under scopes by name and by leaf ordinal, with the footprint off and
// on.
func memoCases(rng *rand.Rand, e *Engine) []memoCase {
	d, nT := e.binding.Varying, e.binding.Param.NumLeaves()
	var names []string
	for o := 0; o < d.NumLeaves(); o++ {
		if n := d.Leaf(o).Name; !slices.Contains(names, n) {
			names = append(names, n)
		}
	}
	var cases []memoCase
	for _, sem := range allSemantics {
		for k := 1; k <= 4; k++ {
			ps := rng.Perm(nT)[:min(k, nT)]
			for i := 0; i < 3; i++ {
				var scope []string // i == 0: the default scope
				if i > 0 {
					for _, n := range names {
						if rng.Intn(3) == 0 {
							scope = append(scope, n)
						}
					}
				}
				for _, footprint := range []bool{false, true} {
					c := memoCase{names: scope, q: PerspectiveQuery{Members: scope, Perspectives: ps, Sem: sem}}
					if footprint {
						c.fp = make(Footprint, e.base.NumDims())
						for di := range c.fp {
							if rng.Intn(2) == 0 {
								continue
							}
							set := bitset.New(e.base.Dim(di).NumLeaves())
							for o := 0; o < set.Universe(); o++ {
								if rng.Intn(4) > 0 {
									set.Add(o)
								}
							}
							c.fp[di] = set
						}
					}
					if i == 2 && scope != nil {
						// The same scope as leaf ordinals, as mdx hands it.
						c.q.Scope = bitset.New(d.NumLeaves())
						for _, n := range scope {
							for _, inst := range d.Instances(n) {
								c.q.Scope.Add(d.Member(inst).LeafOrdinal)
							}
						}
						c.q.Members = nil
					}
					cases = append(cases, c)
				}
			}
		}
	}
	return cases
}

// TestPlanMemoEquivalence: a plan whose relocation rows come from a warm
// memo — filled by other queries over the same binding, in another
// order — equals the plan of the same query on a fresh binding, field by
// field but for the planning time, and both carry the relocation rows
// the pre-memo planner built from Φ member by member. Paper, workforce
// and retail cubes; five semantics × perspective sets of 1–4 points ×
// scopes by name, by leaf and by default × footprint on and off.
func TestPlanMemoEquivalence(t *testing.T) {
	for _, mc := range memoCubes {
		c := mc.build(t)
		warm := freshEngine(t, c, mc.varying)
		rng := rand.New(rand.NewSource(47))
		cases := memoCases(rng, warm)
		for i := len(cases) - 1; i >= 0; i-- {
			if _, err := warm.planPerspective(nil, cases[i].q, cases[i].fp); err != nil {
				t.Fatalf("%s: %v", mc.name, err)
			}
		}
		planned := 0
		for i, cs := range cases {
			label := fmt.Sprintf("%s case %d (%v %v, scope %d names, footprint %v)", mc.name, i, cs.q.Sem, cs.q.Perspectives, len(cs.names), cs.fp != nil)
			got, err := warm.planPerspective(nil, cs.q, cs.fp)
			if err != nil {
				t.Fatal(err)
			}
			if !got.PhiCached {
				t.Fatalf("%s: a warm memo evaluated Φ again", label)
			}
			cold := freshEngine(t, c, mc.varying)
			want, err := cold.planPerspective(nil, cs.q, cs.fp)
			if err != nil {
				t.Fatal(err)
			}
			if want.PhiCached {
				t.Fatalf("%s: a fresh binding found a memo", label)
			}
			samePlan(t, label, got, want)
			names := cs.names
			if names == nil {
				names = c.BindingFor(mc.varying).Varying.VaryingMembers()
			}
			if ref := referenceTarget(t, cold, names, cs.q, cs.fp); !reflect.DeepEqual(targetRows(got), ref) {
				t.Fatalf("%s: relocation rows %v, the member-by-member planner's %v", label, targetRows(got), ref)
			}
			if got.Stats.MembersInScope != len(names) {
				t.Fatalf("%s: %d members in scope, want %d", label, got.Stats.MembersInScope, len(names))
			}
			if got.Target.Len() > 0 {
				planned++
			}
		}
		if planned == 0 {
			t.Fatalf("%s: no case planned a relocation", mc.name)
		}
	}
}

// TestPlanMemoConcurrent: eight goroutines cold-plan the same and
// different hypotheticals on one fresh binding at once — building its
// index and filling its memo concurrently (run it under -race) — and
// every plan equals the one planned alone on another fresh binding.
func TestPlanMemoConcurrent(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	hyps := []PerspectiveQuery{
		{Perspectives: []int{0, 3, 6, 9}, Sem: perspective.ExtendedForward},
		{Perspectives: []int{9, 6, 3, 0}, Sem: perspective.ExtendedForward}, // the same hypothetical
		{Perspectives: []int{0}, Sem: perspective.Static},
		{Perspectives: []int{2, 7}, Sem: perspective.Backward},
	}
	want := make([]*PhysicalPlan, len(hyps))
	for i, q := range hyps {
		if want[i], err = freshEngine(t, w.Cube, workload.DimDepartment).PlanPerspective(q); err != nil {
			t.Fatal(err)
		}
	}
	e := freshEngine(t, w.Cube, workload.DimDepartment)
	got := make([][]*PhysicalPlan, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range hyps {
				i := (g + k) % len(hyps)
				p, err := e.PlanPerspective(hyps[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], p)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g, plans := range got {
		for k, p := range plans {
			i := (g + k) % len(hyps)
			samePlan(t, fmt.Sprintf("goroutine %d, hypothetical %d", g, i), p, want[i])
		}
	}
	if n := len(e.planIndex().memo); n != 3 {
		t.Fatalf("memo holds %d entries for 3 hypotheticals", n)
	}
}

// TestPlanMemoDroppedByPut: the index and memo live on the binding, and
// an edit of the binding drops them, so the next plan reads the edited
// validity sets.
func TestPlanMemoDroppedByPut(t *testing.T) {
	e := newEngine(t)
	q := PerspectiveQuery{Members: []string{"Joe"}, Perspectives: []int{paperdata.Jan}, Sem: perspective.Forward}
	before, err := e.PlanPerspective(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.binding.Derived() == nil {
		t.Fatal("planning kept no index with the binding")
	}
	// Joe's January instance claims the whole half-year, evicting his
	// other instances: every month's source is now that instance.
	jan := e.binding.InstanceAt("Joe", paperdata.Jan)
	if err := e.binding.SetWindow(jan, 0, e.binding.Param.NumLeaves()-1); err != nil {
		t.Fatal(err)
	}
	if e.binding.Derived() != nil {
		t.Fatal("Put left the index on the edited binding")
	}
	after, err := e.PlanPerspective(q)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceTarget(t, e, q.Members, q, nil)
	if after.PhiCached || !reflect.DeepEqual(targetRows(after), want) || reflect.DeepEqual(targetRows(before), want) {
		t.Fatalf("after the edit: cached %v, rows %v, want %v (before the edit %v)", after.PhiCached, targetRows(after), want, targetRows(before))
	}
}

// TestPlanMemoBounded: planning 1 000 distinct hypotheticals on one
// binding leaves at most phiMemoCap entries, the most recent ones.
func TestPlanMemoBounded(t *testing.T) {
	e, _ := workforceEngine(t, workload.ConfigTiny())
	nT := e.binding.Param.NumLeaves()
	var last PerspectiveQuery
	for set := 1; set <= 1000; set++ {
		var ps []int
		for o := 0; o < nT; o++ {
			if set>>o&1 == 1 {
				ps = append(ps, o)
			}
		}
		last = PerspectiveQuery{Perspectives: ps, Sem: perspective.Static}
		if _, err := e.PlanPerspective(last); err != nil {
			t.Fatal(err)
		}
	}
	x := e.planIndex()
	if n := len(x.memo); n > phiMemoCap {
		t.Fatalf("memo holds %d hypotheticals, cap %d", n, phiMemoCap)
	}
	if p, err := e.PlanPerspective(last); err != nil || !p.PhiCached {
		t.Fatalf("the most recent hypothetical was evicted (err %v)", err)
	}
	if first, err := e.PlanPerspective(PerspectiveQuery{Perspectives: []int{0}, Sem: perspective.Static}); err != nil || first.PhiCached {
		t.Fatalf("the least recent hypothetical is still held (err %v)", err)
	}
	bytes := 0
	for _, r := range x.memo {
		bytes += 8*len(r.key) + 4*len(r.dst)
	}
	t.Logf("%d movable members × %d leaves: %d entries, %d bytes", len(x.movable), nT, len(x.memo), bytes)
}

// TestPlanMemoWarmLookupAllocs pins the warm memo lookup at zero
// allocations: its key is the perspective set's bitset words on the
// stack, not a formatted string.
func TestPlanMemoWarmLookupAllocs(t *testing.T) {
	e, _ := workforceEngine(t, workload.ConfigTiny())
	x := e.planIndex()
	ps := []int{0, 3, 6, 9}
	if _, cached, err := x.rows(e.binding, perspective.ExtendedForward, ps); err != nil || cached {
		t.Fatalf("first lookup: cached %v, err %v", cached, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, cached, err := x.rows(e.binding, perspective.ExtendedForward, ps); err != nil || !cached {
			t.Fatalf("warm lookup: cached %v, err %v", cached, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm memo lookup allocates %.1f times, want 0", allocs)
	}
}

// TestPlanMemoValidation: every scope name is checked whatever the
// footprint, and an invalid perspective set, semantics or scope universe
// is an error that leaves no memo entry.
func TestPlanMemoValidation(t *testing.T) {
	e := newEngine(t)
	empty := make(Footprint, e.base.NumDims())
	empty[e.vi] = bitset.New(e.base.Dim(e.vi).NumLeaves())
	if _, err := e.planPerspective(nil, PerspectiveQuery{Members: []string{"Nobody"}, Perspectives: []int{0}}, empty); err == nil {
		t.Fatal("an unknown member under an empty footprint planned")
	}
	for _, q := range []PerspectiveQuery{
		{Perspectives: nil},
		{Perspectives: []int{99}},
		{Perspectives: []int{0}, Sem: perspective.Semantics(9)},
		{Perspectives: []int{0}, Scope: bitset.New(e.binding.Varying.NumLeaves() + 1)},
	} {
		if _, err := e.PlanPerspective(q); err == nil {
			t.Fatalf("%+v planned", q)
		}
	}
	if n := len(e.planIndex().memo); n != 0 {
		t.Fatalf("failed plans left %d memo entries", n)
	}
}
