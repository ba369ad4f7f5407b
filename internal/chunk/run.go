// Run-length encoding over value runs: the third chunk representation
// (alongside dense and sparse), plus what the engine's slab-at-a-time
// relocation kernel needs of a chunk — the span feeder (ForEachSpan)
// and the two bulk writes its overlay lands on (SetRun, SetCells).
//
// A run-encoded chunk stores maximal runs of bit-identical non-Null
// values as three parallel slices: ascending start offsets, lengths,
// and one value per run. Null runs are elided entirely — a gap between
// runs *is* the Null run. At 16 bytes per run the encoding wins
// whenever the run ratio (runs per non-null cell) clears
// runEncodeThreshold; temporally repetitive data (the workforce cube's
// SCD-2 validity windows, where a member's value repeats across its
// window's contiguous time ordinals) compresses by an order of
// magnitude.
//
// Runs are immutable: Set on a run-encoded chunk decodes first
// (copy-on-write) back to dense or sparse by occupancy, so scenario
// layers and commits never mutate encoded slices in place.
//
// This file is on the engine's scan hot path (ForEachSpan feeds the
// relocation kernel, SetRun and SetCells take its writes): no fmt, and
// no allocation per run, slab or cell beyond a destination's growth —
// verify.sh's whatiflint gate enforces the former, the AllocsPerRun pins
// in run_test.go and internal/core the latter.
package chunk

import (
	"math"
	"slices"
	"sort"
)

// runEncodeThreshold is the run ratio (runs per non-null cell) at or
// below which EncodeRuns converts: 16 bytes per run must beat the 8
// bytes per cell of the dense array, so paying off at half a run per
// cell keeps the encoding no larger than dense even before Null-run
// elision.
const runEncodeThreshold = 0.5

// RunCount returns the number of maximal value runs the chunk's
// non-null cells form (its length in runs). For dense and sparse
// chunks this scans; for run-encoded chunks it is O(1).
func (c *Chunk) RunCount() int {
	if c.runOffs != nil {
		return len(c.runOffs)
	}
	n := 0
	c.ForEachRun(func(off, runLen int, v float64) bool {
		n++
		return true
	})
	return n
}

// ForEachRun calls fn for every maximal run of bit-identical non-null
// values, in ascending offset order: fn(start, length, value). Every
// non-null cell is covered by exactly one run; Null cells by none.
// Equality is on float64 bit patterns, so -0 and 0 stay distinct and a
// decode reproduces the chunk bit-exactly. The iteration allocates
// nothing on any representation (pinned by TestForEachRunAllocs).
func (c *Chunk) ForEachRun(fn func(off, runLen int, v float64) bool) {
	switch {
	case c.runOffs != nil:
		for i, off := range c.runOffs {
			if !fn(int(off), int(c.runLens[i]), c.runVals[i]) {
				return
			}
		}
	case c.dense != nil:
		start, length := 0, 0
		var bits uint64
		for off, v := range c.dense {
			if math.IsNaN(v) {
				if length > 0 {
					if !fn(start, length, math.Float64frombits(bits)) {
						return
					}
					length = 0
				}
				continue
			}
			b := math.Float64bits(v)
			if length > 0 && b == bits {
				length++
				continue
			}
			if length > 0 {
				if !fn(start, length, math.Float64frombits(bits)) {
					return
				}
			}
			start, length, bits = off, 1, b
		}
		if length > 0 {
			fn(start, length, math.Float64frombits(bits))
		}
	default:
		start, length := 0, 0
		var bits uint64
		for i, off := range c.offs {
			b := math.Float64bits(c.vals[i])
			if length > 0 && b == bits && int(off) == start+length {
				length++
				continue
			}
			if length > 0 {
				if !fn(start, length, math.Float64frombits(bits)) {
					return
				}
			}
			start, length, bits = int(off), 1, b
		}
		if length > 0 {
			fn(start, length, math.Float64frombits(bits))
		}
	}
}

// countCells returns the number of non-null cells in d.
func countCells(d []float64) int {
	n := 0
	for _, v := range d {
		if !math.IsNaN(v) {
			n++
		}
	}
	return n
}

// scatter writes the chunk's non-null cells into the cap-sized array d,
// leaving every other slot alone; with erase set it writes Null at those
// offsets instead (c is a tombstone chunk).
func (c *Chunk) scatter(d []float64, erase bool) {
	c.ForEach(func(off int, v float64) bool {
		if erase {
			v = math.NaN()
		}
		d[off] = v
		return true
	})
}

// ForEachSpan hands the chunk to a slab-at-a-time consumer — the engine's
// relocation kernel — as spans of offsets [off, off+n) in ascending
// order. A dense chunk is one span carrying its cell array (cells[i] is
// the cell at off+i, Null where empty). A run-encoded chunk is one span
// per value run (cells is nil: every cell holds v). A sparse chunk is
// one span per occupied slab, the aligned block of slab offsets around a
// group of its cells, scattered into scratch — which must be slab long
// and all Null, and is all Null again on return. slab must divide the
// chunk capacity. fn must not keep or write cells. Nothing allocates on
// any representation.
func (c *Chunk) ForEachSpan(slab int, scratch []float64, fn func(off, n int, cells []float64, v float64)) {
	switch {
	case c.dense != nil:
		fn(0, c.cap, c.dense, 0)
	case c.runOffs != nil:
		for i, off := range c.runOffs {
			fn(int(off), int(c.runLens[i]), nil, c.runVals[i])
		}
	default:
		nan := math.NaN()
		for i := 0; i < len(c.offs); {
			start := int(c.offs[i]) / slab * slab
			j := i
			for ; j < len(c.offs) && int(c.offs[j]) < start+slab; j++ {
				scratch[int(c.offs[j])-start] = c.vals[j]
			}
			fn(start, slab, scratch, 0)
			for ; i < j; i++ {
				scratch[int(c.offs[i])-start] = nan
			}
		}
	}
}

// runGet is the run-encoded read path: binary search for the run
// containing off.
func (c *Chunk) runGet(off int) float64 {
	i := sort.Search(len(c.runOffs), func(i int) bool { return c.runOffs[i] > int32(off) }) - 1
	if i >= 0 && int32(off) < c.runOffs[i]+c.runLens[i] {
		return c.runVals[i]
	}
	return math.NaN()
}

// EncodeRuns converts a dense or sparse chunk to the run-encoded
// representation when the run ratio clears runEncodeThreshold (i.e. the
// encoding is at most as large as the dense array). It reports whether
// a conversion happened. Empty and already-encoded chunks are left
// alone.
func (c *Chunk) EncodeRuns() bool {
	if c.runOffs != nil || c.n == 0 {
		return false
	}
	if float64(c.RunCount()) > runEncodeThreshold*float64(c.n) {
		return false
	}
	c.toRuns()
	return true
}

// Settle gives the chunk the representation it is published in: run
// encoded when the runs pay (EncodeRuns), otherwise sparse or dense by
// occupancy (Compress). It reports whether a conversion happened; a
// settled chunk converts nothing. Catalog publication settles every
// chunk of a version before it is served or written back, and nothing
// changes a chunk's representation afterwards.
func (c *Chunk) Settle() bool { return c.EncodeRuns() || c.Compress() }

// ForceRuns converts a dense or sparse chunk to the run-encoded
// representation regardless of the run ratio. On low-repetition data
// this *grows* the footprint (16 bytes per length-1 run vs. 8 dense);
// it exists for representation ablations and the kernel equivalence
// tests, which must exercise degenerate runs too.
func (c *Chunk) ForceRuns() bool {
	if c.runOffs != nil || c.n == 0 {
		return false
	}
	c.toRuns()
	return true
}

// toRuns materializes the run slices from the current representation.
func (c *Chunk) toRuns() {
	runs := c.RunCount()
	offs := make([]int32, 0, runs)
	lens := make([]int32, 0, runs)
	vals := make([]float64, 0, runs)
	c.ForEachRun(func(off, runLen int, v float64) bool {
		offs = append(offs, int32(off))
		lens = append(lens, int32(runLen))
		vals = append(vals, v)
		return true
	})
	c.runOffs, c.runLens, c.runVals = offs, lens, vals
	c.dense, c.offs, c.vals = nil, nil, nil
}

// decodeRuns is the copy-on-write decode behind every mutation of a
// run-encoded chunk: expand to dense, then compress to sparse when
// occupancy is at or under the sparse threshold (the same policy Set
// applies to growing sparse chunks, in reverse).
func (c *Chunk) decodeRuns() {
	c.toDense()
	if c.Occupancy() <= sparseThreshold {
		c.toSparse()
	}
}

// promoteFor converts a sparse chunk to dense once, up front, when k
// more cells would cross the density threshold — the bulk writes' answer
// to Set's cell-by-cell growth and late promotion.
func (c *Chunk) promoteFor(k int) {
	if c.dense == nil && float64(c.n+k) > sparseThreshold*float64(c.cap) {
		c.toDense()
	}
}

// SetRun writes n copies of v starting at off — the overlay write path
// for a value run (Overlay.SetRunAt). NaN deletes the range. Like Set, a
// run-encoded chunk decodes first; a sparse chunk that would cross the
// density threshold promotes once, up front (promoteFor).
func (c *Chunk) SetRun(off, n int, v float64) {
	if n <= 0 {
		return
	}
	c.checkOff(off)
	c.checkOff(off + n - 1)
	if c.runOffs != nil {
		c.decodeRuns()
	}
	if math.IsNaN(v) {
		for i := off; i < off+n; i++ {
			c.Set(i, v)
		}
		return
	}
	c.promoteFor(n)
	if c.dense != nil {
		for i := off; i < off+n; i++ {
			if math.IsNaN(c.dense[i]) {
				c.n++
			}
			c.dense[i] = v
		}
		return
	}
	for i := off; i < off+n; i++ {
		c.Set(i, v)
	}
}

// SetCells writes the non-null entries of cells at offsets off, off+1, …
// and returns how many it wrote — the overlay write path for a slab of
// distinct values (Overlay.SetCellsAt). Null entries are holes, not
// deletes: the destination keeps whatever it holds there. A sparse
// destination takes the slab with one search and one move (none when the
// slab lands past its last cell, as it does when a scan fills a chunk in
// offset order) instead of a search and a move per cell.
func (c *Chunk) SetCells(off int, cells []float64) int {
	k := countCells(cells)
	if k == 0 {
		return 0
	}
	c.checkOff(off)
	c.checkOff(off + len(cells) - 1)
	if c.runOffs != nil {
		c.decodeRuns()
	}
	c.promoteFor(k)
	if c.dense != nil {
		for i, v := range cells {
			if !math.IsNaN(v) {
				if math.IsNaN(c.dense[off+i]) {
					c.n++
				}
				c.dense[off+i] = v
			}
		}
		return k
	}
	n0 := len(c.offs)
	lo := n0
	if n0 > 0 && int(c.offs[n0-1]) >= off {
		lo = sort.Search(n0, func(i int) bool { return c.offs[i] >= int32(off) })
		if int(c.offs[lo]) < off+len(cells) {
			// The range already holds cells (a rescan into a warm
			// destination): overwrite or insert cell by cell.
			for i, v := range cells {
				if !math.IsNaN(v) {
					c.Set(off+i, v)
				}
			}
			return k
		}
	}
	c.offs = slices.Grow(c.offs, k)[:n0+k]
	c.vals = slices.Grow(c.vals, k)[:n0+k]
	copy(c.offs[lo+k:], c.offs[lo:n0])
	copy(c.vals[lo+k:], c.vals[lo:n0])
	for i, v := range cells {
		if !math.IsNaN(v) {
			c.offs[lo], c.vals[lo] = int32(off+i), v
			lo++
		}
	}
	c.n += k
	return k
}
