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
// the physical plan. A scoped cell off the footprint reads ⊥ whatever
// the scenario holds there, which is why only the projected entry
// points, which hand out no view, plan under one.
type Footprint []*bitset.Set

// has reports whether leaf ordinal o of dimension d is on the footprint.
func (f Footprint) has(d, o int) bool {
	return f == nil || f[d] == nil || f[d].Contains(o)
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
		add := func(o int) bool { set.Add(o); return true }
		each := func(m dimension.MemberID) bool { return allLeaves(dim, m, add) }
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
		on := make([]bool, g.ChunksPerDim(d))
		for _, o := range set.Slice() {
			on[o/g.ChunkDims[d]] = true
		}
		if slices.Contains(on, false) {
			out = append(out, chunkFilter{idStride: g.ChunkIDStride(d), n: len(on), on: on})
		}
	}
	return out
}

// offRun is a run [lo, hi) of offsets relative to a slab's start.
type offRun struct{ lo, hi int }

// slabMask is one merge group's share of the footprint, in the form the
// slab kernel applies: the dimensions other than the varying and the
// parameter one, whose chunk coordinates the group's chunks share. A
// slab holds the digits of the dimensions slower than it constant and
// runs over those faster than it, so the mask factors the same way: one
// flag per slab of the chunk for the slower digits, one run list inside
// the slab for the faster ones. The varying and parameter digits are
// not its business — the relocation table carries their share of the
// footprint as -1 entries.
type slabMask struct {
	// runs are the on-footprint offset intervals of one slab, ascending
	// and disjoint.
	runs []offRun
	// outer[s] reports whether slab s of the chunk (offset / slab length)
	// has every slower digit on the footprint; nil when they all have.
	outer []bool
}

// maskBuilder builds the slab masks of one plan's merge groups.
type maskBuilder struct {
	g    *chunk.Geometry
	fp   Footprint
	slab int
	// inner and outer are the restricted dimensions faster and slower
	// than the slab; in and out, per group, those of them whose chunk row
	// the footprint cuts.
	inner, outer []int
	in, out      []int
}

func newMaskBuilder(g *chunk.Geometry, fp Footprint, vi, pi int) *maskBuilder {
	mb := &maskBuilder{g: g, fp: fp, slab: min(g.OffsetStride(vi), g.OffsetStride(pi))}
	for d, set := range fp {
		switch {
		case set == nil || d == vi || d == pi:
		case g.OffsetStride(d) < mb.slab:
			mb.inner = append(mb.inner, d)
		default:
			mb.outer = append(mb.outer, d)
		}
	}
	return mb
}

// cut appends to dst the dimensions of dims whose chunk row at rest the
// footprint does not hold whole: only their digits can fail a cell.
// Padding past a dimension's extent counts as held.
func (mb *maskBuilder) cut(dst []int, rest []int, dims []int) []int {
	for _, d := range dims {
		cd := mb.g.ChunkDims[d]
		for o := rest[d] * cd; o < min((rest[d]+1)*cd, mb.g.Extents[d]); o++ {
			if !mb.fp[d].Contains(o) {
				dst = append(dst, d)
				break
			}
		}
	}
	return dst
}

// pass reports whether the cell at in-chunk offset off of a chunk at
// coordinate rest has its digit of every dimension in dims on the
// footprint. Padding past a dimension's extent passes: no cell lives
// there, and counting it in keeps a fully covered chunk's mask whole.
func (mb *maskBuilder) pass(rest []int, dims []int, off int) bool {
	for _, d := range dims {
		cd := mb.g.ChunkDims[d]
		o := rest[d]*cd + off/mb.g.OffsetStride(d)%cd
		if o < mb.g.Extents[d] && !mb.fp[d].Contains(o) {
			return false
		}
	}
	return true
}

// forRest returns the mask of the merge group at chunk coordinate rest
// (the varying coordinate is ignored), or nil when every cell of the
// group's chunks passes — always, under a nil footprint, and whenever
// the footprint holds the group's chunk row of every restricted
// dimension whole, which is decided once per dimension, not per offset.
func (mb *maskBuilder) forRest(rest []int) *slabMask {
	mb.in, mb.out = mb.cut(mb.in[:0], rest, mb.inner), mb.cut(mb.out[:0], rest, mb.outer)
	if len(mb.in)+len(mb.out) == 0 {
		return nil
	}
	m := &slabMask{}
	if len(mb.in) == 0 {
		m.runs = []offRun{{0, mb.slab}}
	}
	for off := 0; off < mb.slab && len(mb.in) > 0; off++ {
		if !mb.pass(rest, mb.in, off) {
			continue
		}
		if n := len(m.runs); n > 0 && m.runs[n-1].hi == off {
			m.runs[n-1].hi++
		} else {
			m.runs = append(m.runs, offRun{off, off + 1})
		}
	}
	if len(mb.out) > 0 {
		m.outer = make([]bool, mb.g.ChunkCap()/mb.slab)
		for s := range m.outer {
			m.outer[s] = mb.pass(rest, mb.out, s*mb.slab)
		}
	}
	return m
}
