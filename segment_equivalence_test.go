// The storage-tier equivalence pin: a cube served out of a segment
// file behind the buffer pool must answer every perspective query
// bit-identically to the same cube fully resident in memory. The round
// trip goes through the real daemon path — catalog write-back into a
// data directory, restart-style restore, engine faulting chunks back
// through the segment tier — so any encoding, checksum, ordering or
// fault-in bug shows up as a differing cell.
package olap_test

import (
	"math"
	"testing"

	"whatifolap/internal/core"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/server"
)

// segmentBackedCopy persists c through a catalog write-back and
// restores it from the data directory alone, returning the tier-backed
// twin.
func segmentBackedCopy(t *testing.T, c *cube.Cube) *cube.Cube {
	t.Helper()
	dir := t.TempDir()
	p, err := server.OpenPersister(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	cat := server.NewCatalog()
	cat.SetPersister(p)
	if err := cat.Register("pin", c); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	p2, err := server.OpenPersister(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	cat2 := server.NewCatalog()
	if _, err := p2.Restore(cat2); err != nil {
		t.Fatal(err)
	}
	snap, err := cat2.Acquire("pin")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(snap.Release)
	return snap.Cube
}

// assertViewsBitIdentical compares two engine views cell for cell —
// exact float bits, no tolerance — translating member identities via
// paths so the comparison is independent of internal ordinal layout.
func assertViewsBitIdentical(t *testing.T, mem, seg *core.View, mode perspective.Mode) {
	t.Helper()
	rm, rs := mem.Result(), seg.Result()
	count := func(c *cube.Cube) int {
		n := 0
		c.Store().NonNull(func([]int, float64) bool { n++; return true })
		return n
	}
	if nm, ns := count(rm), count(rs); nm != ns || nm == 0 {
		t.Fatalf("non-null cells: memory %d, segment %d", nm, ns)
	}
	rm.Store().NonNull(func(addr []int, want float64) bool {
		ids := make([]dimension.MemberID, len(addr))
		for i, o := range addr {
			p := rm.Dim(i).Path(rm.Dim(i).Leaf(o).ID)
			id, err := rs.Dim(i).Lookup(p)
			if err != nil {
				t.Fatalf("segment view lacks member %s: %v", p, err)
			}
			ids[i] = id
		}
		if got := rs.Value(ids); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cell %v: segment %v, memory %v", addr, got, want)
		}
		return true
	})
	// Aggregates exercise the mode (visual re-aggregation vs retained
	// input aggregates); they must match bitwise too.
	for _, refs := range [][]string{
		{"FTE", "NY", "Qtr1", "Salary"},
		{"PTE", "NY", "Qtr2", "Salary"},
		{"Contractor", "East", "Time", "Salary"},
		{"Organization", "NY", "Qtr1", "Compensation"},
		{"Organization", "Location", "Time", "Measures"},
	} {
		mids := make([]dimension.MemberID, len(refs))
		sids := make([]dimension.MemberID, len(refs))
		for i, r := range refs {
			mids[i] = rm.Dim(i).MustLookup(r)
			sids[i] = rs.Dim(i).MustLookup(r)
		}
		want, err := mem.Cell(mids)
		if err != nil {
			t.Fatal(err)
		}
		got, err := seg.Cell(sids)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("aggregate %v (mode %v): segment %v, memory %v", refs, mode, got, want)
		}
	}
}

func TestSegmentTierEquivalenceAllSemantics(t *testing.T) {
	memCube := paperdata.ChunkedWarehouse(nil)
	segCube := segmentBackedCopy(t, memCube)

	memEng, err := core.New(memCube, "Organization")
	if err != nil {
		t.Fatal(err)
	}
	segEng, err := core.New(segCube, "Organization")
	if err != nil {
		t.Fatal(err)
	}

	sems := []perspective.Semantics{
		perspective.Static, perspective.Forward, perspective.ExtendedForward,
		perspective.Backward, perspective.ExtendedBackward,
	}
	modes := []perspective.Mode{perspective.NonVisual, perspective.Visual}
	for _, sem := range sems {
		for _, mode := range modes {
			q := core.PerspectiveQuery{
				Members:      []string{"Joe"},
				Perspectives: []int{paperdata.Feb, paperdata.Apr},
				Sem:          sem,
				Mode:         mode,
			}
			memView, err := memEng.ExecPerspective(q)
			if err != nil {
				t.Fatalf("%v/%v memory: %v", sem, mode, err)
			}
			segView, err := segEng.ExecPerspective(q)
			if err != nil {
				t.Fatalf("%v/%v segment: %v", sem, mode, err)
			}
			assertViewsBitIdentical(t, memView, segView, mode)

			// The served path folds the scan into the grid, the base's rows
			// from the same chunk reads; every read faults through the
			// tier, and both runs follow one plan, so the grids are
			// bit-identical.
			memGrid, segGrid := fusedGrid(t, memCube, memEng, q), fusedGrid(t, segCube, segEng, q)
			for i := range memGrid {
				for j, want := range memGrid[i] {
					if got := segGrid[i][j]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v/%v fused cell (%d, %d): segment %v, memory %v", sem, mode, i, j, got, want)
					}
				}
			}
		}
	}
}

// fusedGrid runs q on e, the engine over c, on the served path —
// projected into a grid of every Organization group and leaf by every
// Time quarter and month, at (NY, Salary) — and fails unless the scan
// fused. Members are looked up by name in c's own dimensions.
func fusedGrid(t *testing.T, c *cube.Cube, e *core.Engine, q core.PerspectiveQuery) [][]float64 {
	t.Helper()
	var g core.Grid
	coord := func(d int, ref string) core.Coord { return core.Coord{Dim: d, Member: c.Dim(d).MustLookup(ref)} }
	for _, ref := range []string{"Organization", "FTE", "PTE", "Contractor"} {
		g.Rows = append(g.Rows, core.Tuple{coord(0, ref)})
	}
	for _, id := range c.Dim(0).Leaves() {
		g.Rows = append(g.Rows, core.Tuple{{Dim: 0, Member: id}})
	}
	for _, ref := range []string{"Time", "Qtr1", "Qtr2"} {
		g.Cols = append(g.Cols, core.Tuple{coord(2, ref)})
	}
	for _, id := range c.Dim(2).Leaves() {
		g.Cols = append(g.Cols, core.Tuple{{Dim: 2, Member: id}})
	}
	g.Slicer = core.Tuple{coord(1, "NY"), coord(3, "Salary")}
	out := make([][]float64, len(g.Rows))
	for i := range out {
		out[i] = make([]float64, len(g.Cols))
	}
	_, ps, err := e.ExecPerspectiveProjected(core.ExecContext{}, q, g, out)
	if err != nil {
		t.Fatalf("%v/%v fused: %v", q.Sem, q.Mode, err)
	}
	if !ps.Fused {
		t.Fatalf("%v/%v: the grid did not fuse: %+v", q.Sem, q.Mode, ps)
	}
	return out
}
