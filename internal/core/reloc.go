package core

import (
	"slices"

	"whatifolap/internal/chunk"
)

// RelocTable is a query's relocation table: for each source ordinal of
// the varying dimension — an instance whose cells the scenario moves —
// one row holding the destination ordinal per parameter leaf, -1 where
// the cell vanishes or lands off the footprint. It is indexed in two
// levels, by the varying dimension's chunk coordinate and by the
// ordinal's digit inside that chunk row, so that a table takes memory
// by the chunk rows that hold sources and not by the dimension (a
// one-employee query does not pay for four thousand), the planner reads
// off which chunk rows are sources, and the scan kernel, positioned on a
// chunk, probes one small array. Rows are cut from one arena. Read-only
// once planned.
type RelocTable struct {
	width, edge int
	// index[vc][digit] is the row number of source ordinal
	// vc·edge + digit, -1 when it has none; index[vc] is nil while chunk
	// row vc has had no row.
	index [][]int32
	rows  []int
	live  int
}

// newRelocTable creates an empty table for sources of dimension vi
// under the store geometry g, with rows of width entries and room for
// rows of them before the arena has to grow.
func newRelocTable(g *chunk.Geometry, vi, width, rows int) *RelocTable {
	return &RelocTable{width: width, edge: g.ChunkDims[vi],
		index: make([][]int32, g.ChunksPerDim(vi)), rows: make([]int, 0, rows*width)}
}

// Row returns the row of source ordinal src, nil when src is no source.
// The slice aliases the table.
func (t *RelocTable) Row(src int) []int {
	if vc := src / t.edge; vc < len(t.index) && t.index[vc] != nil {
		if r := int(t.index[vc][src%t.edge]); r >= 0 {
			return t.rows[r*t.width : (r+1)*t.width : (r+1)*t.width]
		}
	}
	return nil
}

// Len returns the number of source ordinals.
func (t *RelocTable) Len() int { return t.live }

// add returns the row of source ordinal src, creating it with every
// entry -1 if need be. Adding a row may move the arena: a row is good
// until the next add.
func (t *RelocTable) add(src int) []int {
	if row := t.Row(src); row != nil {
		return row
	}
	vc := src / t.edge
	if t.index[vc] == nil {
		t.index[vc] = make([]int32, t.edge)
		for i := range t.index[vc] {
			t.index[vc][i] = -1
		}
	}
	n := len(t.rows)
	t.index[vc][src%t.edge] = int32(n / t.width)
	t.rows = slices.Grow(t.rows, t.width)[:n+t.width]
	row := t.rows[n:]
	for i := range row {
		row[i] = -1
	}
	t.live++
	return row[:t.width:t.width]
}

// drop makes src no source. Its row stays in the arena, unreachable.
func (t *RelocTable) drop(src int) {
	if t.Row(src) != nil {
		t.index[src/t.edge][src%t.edge] = -1
		t.live--
	}
}

// each calls fn for every source ordinal, ascending, with its row.
func (t *RelocTable) each(fn func(src int, row []int)) {
	for vc, block := range t.index {
		for digit, r := range block {
			if r >= 0 {
				fn(vc*t.edge+digit, t.rows[int(r)*t.width:int(r+1)*t.width])
			}
		}
	}
}
