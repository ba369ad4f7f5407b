package core

import (
	"slices"

	"whatifolap/internal/bitset"
	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
)

// Footprint is the set of leaf cells of a query's result cube that the
// query's grid reads: per dimension in schema order, the leaf ordinals
// (of the result cube — a positive scenario's varying entry counts the
// hypothetical instances too) a read can name. A nil entry leaves its
// dimension unrestricted; a nil Footprint restricts nothing. The engine
// derives it from the grid it compiles (projection.footprint) and plans
// under it; no caller declares one.
//
// It complements the scope. The scope (PerspectiveQuery.Members, the
// members a change relation names) says which varying members' rows the
// overlay owns; the footprint says which cells of those rows the grid
// will look at, so the engine relocates only those: it is the slice/dice
// that commutes with relocation (algebra.pushable, rule 4), applied to
// the physical plan — in two places. The relocation table sends a
// varying destination or a parameter leaf off it to -1, and a chunk
// whose coordinate in another dimension holds no footprint leaf is not
// scheduled. Inside a scheduled chunk the scan's sink is the only cell
// filter: a fold reads the cells its leaf tables route to a grid cell,
// an overlay takes every cell the table moves. So a scoped cell off the
// footprint in the varying or the parameter dimension reads ⊥, and one
// off it elsewhere reads ⊥ when its chunk was not scheduled, whatever
// the scenario holds there — which is why only the projected entry
// points, which hand out no view, plan under one.
type Footprint []*bitset.Set

// has reports whether leaf ordinal o of dimension d is on the footprint.
func (f Footprint) has(d, o int) bool {
	return f == nil || f[d] == nil || f[d].Contains(o)
}

// empty reports whether no leaf of dimension d is on the footprint. A
// footprint empty in the varying or the parameter dimension leaves the
// grid no cell of a relocated row to read: planPerspective runs no Φ.
func (f Footprint) empty(d int) bool {
	return f != nil && f[d] != nil && f[d].IsEmpty()
}

// footprint returns the leaf cells of the result, whose schema p was
// compiled over, that the grid reads: per dimension, the leaves under
// the members its compiled view cells and its fallback cells that read
// the result name — every other cell is retained from the input or ⊥.
// A dimension a formula rule targets or references stays open (nil):
// evaluating Margin reads Sales and COGS, whatever the grid names. A
// grid too wide to compile has no footprint.
func (p *projection) footprint(schema *cube.Cube) Footprint {
	if p.stats.Reason == reasonWide {
		return nil
	}
	open := schema.Rules().FormulaDims()
	fp := make(Footprint, schema.NumDims())
	for d := range fp {
		dim := schema.Dim(d)
		if open[dim.Name()] {
			continue
		}
		set := bitset.New(dim.NumLeaves())
		each := func(m dimension.MemberID) bool { dim.LeafRanges(m, set.AddRange); return true }
		if p.view != nil {
			p.view.members[d].all(each)
		}
		if p.fallback != nil {
			p.fallback[d].all(each)
		}
		fp[d] = set
	}
	return fp
}

// cells returns the number of leaf cells on the footprint of a result
// cube with the given leaf counts per dimension.
func (f Footprint) cells(leaves []int) int {
	n := 1
	for d, set := range f {
		if set != nil {
			n *= set.Len()
		} else {
			n *= leaves[d]
		}
	}
	return n
}

// chunkFilter is one non-varying dimension's share of the planner's
// relevant-chunk test: on[c] reports whether chunk coordinate c of the
// dimension holds a footprint leaf.
type chunkFilter struct {
	idStride, n int
	on          []bool
}

// chunkFilters returns a filter for every dimension but the varying one
// whose footprint leaves some chunk coordinate empty. (The varying
// dimension is filtered through the relocation table: a chunk row none
// of whose instances feeds an on-footprint destination has no source
// row left.)
func (f Footprint) chunkFilters(g *chunk.Geometry, vi int) []chunkFilter {
	var out []chunkFilter
	for d, set := range f {
		if set == nil || d == vi {
			continue
		}
		if cf, cuts := newChunkFilter(g, d, set.ForEach); cuts {
			out = append(out, cf)
		}
	}
	return out
}

// newChunkFilter returns the filter of dimension d of g that passes the
// chunk coordinates holding a leaf ordinal each yields, and whether it
// rules out any: one that does not is not worth testing.
func newChunkFilter(g *chunk.Geometry, d int, each func(yield func(o int))) (chunkFilter, bool) {
	on := make([]bool, g.ChunksPerDim(d))
	each(func(o int) { on[o/g.ChunkDims[d]] = true })
	return chunkFilter{idStride: g.ChunkIDStride(d), n: len(on), on: on}, slices.Contains(on, false)
}
