package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/trace"
	"whatifolap/internal/workload"
)

// legacyOverlay is the reference relocation kernel: the string-keyed
// cube.MemStore scan the chunk-native kernel replaced. It reads the
// plan's schedule and applies the same relocation tables, so any
// divergence from the chunk-native overlays is a kernel bug, not a
// planning difference.
func legacyOverlay(e *Engine, p *PhysicalPlan) *cube.MemStore {
	ms := cube.NewMemStore(e.base.NumDims())
	g := e.store.Geometry()
	ccoord := make([]int, g.NumDims())
	addr := make([]int, g.NumDims())
	out := make([]int, g.NumDims())
	for _, id := range p.Schedule {
		ch := e.store.ReadChunk(id)
		if ch == nil {
			continue
		}
		g.CoordOf(id, ccoord)
		ch.ForEach(func(off int, v float64) bool {
			g.Join(ccoord, off, addr)
			row := p.Target.Row(addr[e.vi])
			if row == nil {
				return true
			}
			dst := row[addr[e.pi]]
			if dst < 0 {
				return true
			}
			copy(out, addr)
			out[e.vi] = dst
			ms.Set(out, v)
			return true
		})
	}
	return ms
}

// dumpStore materializes any cube.Store for exact comparison.
func dumpStore(s cube.Store) map[string]float64 {
	m := make(map[string]float64)
	s.NonNull(func(addr []int, v float64) bool {
		m[fmt.Sprint(addr)] = v
		return true
	})
	return m
}

// overlayOf extracts the relocated-cell overlay from a view.
func overlayOf(t *testing.T, v *View) cube.Store {
	t.Helper()
	vs, ok := v.Result().Store().(*viewStore)
	if !ok {
		t.Fatalf("view store is %T, want *viewStore", v.Result().Store())
	}
	return vs.overlay
}

// TestKernelMatchesLegacyMemStorePaper pins the tentpole invariant on
// the paper's warehouse: at every semantics × mode, the chunk-native
// overlay holds exactly the cells the legacy MemStore kernel produces.
func TestKernelMatchesLegacyMemStorePaper(t *testing.T) {
	e := newEngine(t)
	for _, sem := range allSemantics {
		for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
			q := PerspectiveQuery{
				Members: []string{"Joe"}, Perspectives: []int{paperdata.Feb, paperdata.Apr},
				Sem: sem, Mode: mode,
			}
			plan, err := e.PlanPerspective(q)
			if err != nil {
				t.Fatalf("%v/%v plan: %v", sem, mode, err)
			}
			want := dumpStore(legacyOverlay(e, plan))

			v, err := e.ExecPerspective(q)
			if err != nil {
				t.Fatalf("%v/%v: %v", sem, mode, err)
			}
			sov := overlayOf(t, v)
			if _, ok := sov.(*chunk.Overlay); !ok {
				t.Fatalf("overlay is %T, want *chunk.Overlay", sov)
			}
			if got := dumpStore(sov); !sameCells(want, got) {
				t.Fatalf("%v/%v: chunk-native overlay differs from legacy kernel (%d vs %d cells)",
					sem, mode, len(got), len(want))
			}
		}
	}
}

// TestKernelQuickLegacyEquivalenceWorkforce is the property form over a
// generated workforce cube: for random scopes, perspective sets,
// semantics and modes, the chunk-native overlay and the legacy MemStore
// kernel agree cell for cell.
func TestKernelQuickLegacyEquivalenceWorkforce(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(w.Cube, workload.DimDepartment)
	if err != nil {
		t.Fatal(err)
	}
	property := func(memberBits, perspBits uint16, semPick, modePick uint8) bool {
		var members []string
		for i, name := range w.Changing {
			if memberBits&(1<<uint(i%16)) != 0 {
				members = append(members, name)
			}
		}
		if len(members) == 0 {
			members = w.Changing[:1]
		}
		var ps []int
		for m := 0; m < w.Config.Months; m++ {
			if perspBits&(1<<uint(m)) != 0 {
				ps = append(ps, m)
			}
		}
		if len(ps) == 0 {
			ps = []int{0}
		}
		q := PerspectiveQuery{
			Members:      members,
			Perspectives: ps,
			Sem:          allSemantics[int(semPick)%len(allSemantics)],
			Mode:         []perspective.Mode{perspective.NonVisual, perspective.Visual}[int(modePick)%2],
		}
		plan, perr := e.PlanPerspective(q)
		v, err := e.ExecPerspective(q)
		if perr != nil || err != nil {
			// Planning and execution must fail together with the same error.
			return perr != nil && err != nil && perr.Error() == err.Error()
		}
		return sameCells(dumpStore(legacyOverlay(e, plan)), dumpStore(overlayOf(t, v)))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelAmortizedAllocsPerCell is the core-level allocation
// regression: re-running scanInto against a pre-warmed overlay, the
// allocations amortize to (well under) one per relocated cell. The
// exact-zero per-cell bound lives next to the Overlay in
// internal/chunk; this test pins the whole kernel loop — Join, target
// lookup, SplitID, chunk write — to O(chunks) allocations, not
// O(cells). The legacy MemStore kernel allocates at least one address
// key per cell, so its ratio is ≥ 1 by construction.
func TestKernelAmortizedAllocsPerCell(t *testing.T) {
	e := newEngine(t)
	q := PerspectiveQuery{
		Members: []string{"Joe"}, Perspectives: []int{paperdata.Feb, paperdata.Apr},
		Sem: perspective.Forward, Mode: perspective.NonVisual,
	}
	plan, err := e.PlanPerspective(q)
	if err != nil {
		t.Fatal(err)
	}
	ov := chunk.NewOverlay(e.store.Geometry())
	tally, err := e.scanInto(nil, plan, ov, nil, nil, nil, trace.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	if tally.cellsRelocated == 0 {
		t.Fatal("no cells relocated; test is vacuous")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.scanInto(nil, plan, ov, nil, nil, nil, trace.SpanRef{}); err != nil {
			t.Fatal(err)
		}
	})
	perCell := allocs / float64(tally.cellsRelocated)
	if perCell >= 1 {
		t.Fatalf("scanInto allocates %.2f/run = %.3f per relocated cell (%d cells); want amortized < 1",
			allocs, perCell, tally.cellsRelocated)
	}
}
