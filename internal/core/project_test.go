package core

import (
	"testing"

	"whatifolap/internal/dimension"
	"whatifolap/internal/perspective"
)

// TestProjectAssembleAllocs pins the view assembly every engine query
// runs: the result cube shares the input's validated bindings and its
// name index, so assembling it re-checks no validity set and allocates
// a view and a cube, whatever the bindings hold.
func TestProjectAssembleAllocs(t *testing.T) {
	e := newEngine(t)
	vs := &viewStore{base: e.readStore(), vi: e.vi}
	if allocs := testing.AllocsPerRun(100, func() { e.assemble(vs, nil, nil, perspective.Visual) }); allocs > 2 {
		t.Fatalf("assemble allocates %.0f times, want at most 2", allocs)
	}
}

// wideGrid is a grid over flatCube(extents) whose rows are every pair
// of leaves of D0 and D1 and whose columns name leaf j in each of the
// remaining dimensions, for j below cols.
func wideGrid(extents []int, cols int) Grid {
	var g Grid
	for a := 0; a < extents[0]; a++ {
		for b := 0; b < extents[1]; b++ {
			// A flat dimension's leaf o is member o+1, after the root.
			g.Rows = append(g.Rows, Tuple{{Dim: 0, Member: dimension.MemberID(a + 1)}, {Dim: 1, Member: dimension.MemberID(b + 1)}})
		}
	}
	for j := 0; j < cols; j++ {
		var tp Tuple
		for d := 2; d < len(extents); d++ {
			tp = append(tp, Coord{Dim: d, Member: dimension.MemberID(j + 1)})
		}
		g.Cols = append(g.Cols, tp)
	}
	return g
}

// TestProjectWideGridKeysDistinct: a grid whose accumulator key space
// passes 2^40 — 2·2·1100⁴ member combinations — still gives distinct
// member tuples distinct accumulators: every radix is the product of
// the member counts of the dimensions after it.
func TestProjectWideGridKeysDistinct(t *testing.T) {
	extents := []int{2, 2, 1100, 1100, 1100, 1100}
	c := flatCube(extents)
	g := wideGrid(extents, 1100)
	p := compileProjection(c, c, perspective.Visual, g)
	if p.stats.Compiled != len(p.cell) || p.stats.Fallback != 0 {
		t.Fatalf("%+v, want all %d cells compiled", p.stats, len(p.cell))
	}
	seen := make(map[int32]int, len(p.cell))
	for cell, a := range p.cell {
		if prev, ok := seen[a]; ok {
			t.Fatalf("cells %d and %d (rows %d and %d) share accumulator %d", prev, cell, prev/len(g.Cols), cell/len(g.Cols), a)
		}
		seen[a] = cell
	}
}

// TestProjectKeySpaceOverflowFallsBack: a grid whose accumulator key
// space does not fit an int — 1100⁷ combinations of the members its
// cells name — is not compiled: every cell falls back to per-cell
// evaluation under a reason EXPLAIN prints, and the footprint still
// holds the leaves those cells read.
func TestProjectKeySpaceOverflowFallsBack(t *testing.T) {
	extents := []int{1, 1, 1100, 1100, 1100, 1100, 1100, 1100, 1100}
	c := flatCube(extents)
	g := wideGrid(extents, 1100)
	p := compileProjection(c, c, perspective.Visual, g)
	if p.stats.Compiled != 0 || p.stats.Fallback != len(p.cell) || p.stats.Reason != reasonKeySpace || p.view != nil {
		t.Fatalf("%+v, want all %d cells to fall back: %s", p.stats, len(p.cell), reasonKeySpace)
	}
	fp := p.footprint(c)
	for d, n := range extents {
		if fp[d] == nil || fp[d].Len() != min(n, 1100) {
			t.Fatalf("footprint of D%d = %v, want %d leaves", d, fp[d], min(n, 1100))
		}
	}
}
