// Reviewed for hotpathfmt: fmt in this package builds geometry/spill
// errors and cold diagnostics; the overlay write path (overlay.go, a
// declared hot-path file) is fmt-free and hotpathfmt-checked.
//
//lint:coldfmt geometry/spill error construction off the overlay write path
package chunk

import (
	"fmt"
	"math"
	"sort"
)

// Representation selects a chunk's physical layout.
type Representation int

const (
	// Dense chunks hold a full float64 array (Null-filled).
	Dense Representation = iota
	// Sparse chunks hold sorted (offset, value) pairs; the paper's
	// engine compresses sparse regions this way.
	Sparse
	// RunEncoded chunks hold RLE value runs (sorted start offsets with
	// lengths and one value per run; Null runs are elided). The engine's
	// scan consumes runs directly via ForEachRun — see run.go.
	RunEncoded
)

// sparseThreshold is the occupancy fraction above which a sparse chunk
// is converted to dense, and at or below which Compress converts a
// dense one to sparse.
const sparseThreshold = 0.25

// Chunk is one n-dimensional tile of the cell space. The zero value is
// unusable; chunks are created by a Store.
type Chunk struct {
	cap   int
	n     int // non-null cells
	dense []float64
	// sparse representation: parallel sorted slices.
	offs []int32
	vals []float64
	// run-encoded representation: parallel slices of non-overlapping
	// runs in ascending start order (see run.go).
	runOffs []int32
	runLens []int32
	runVals []float64
}

// NewDense allocates a dense chunk with the given cell capacity.
func NewDense(capacity int) *Chunk {
	c := &Chunk{cap: capacity, dense: make([]float64, capacity)}
	nullFill(c.dense)
	return c
}

// NewDenseFrame returns an empty dense chunk of the given capacity for
// scratch use, its array taken from the free list evicted frames feed
// (denseFrame) when one of that capacity is there. Recycle hands it
// back.
func NewDenseFrame(capacity int) *Chunk {
	return &Chunk{cap: capacity, dense: denseFrame(capacity)}
}

// Recycle hands a dense chunk's array to the free list NewDenseFrame and
// the buffer pool's decodes take from. Nothing may use the chunk, or a
// slice of its cells, afterwards.
func (c *Chunk) Recycle() {
	if c.dense != nil {
		recycleDenseFrame(&c.dense)
	}
}

// nullFill sets every cell of d to Null.
func nullFill(d []float64) {
	nan := math.NaN()
	for i := range d {
		d[i] = nan
	}
}

// NewSparse allocates an empty sparse chunk with the given capacity.
func NewSparse(capacity int) *Chunk {
	return &Chunk{cap: capacity}
}

// Rep returns the chunk's current representation.
func (c *Chunk) Rep() Representation {
	if c.dense != nil {
		return Dense
	}
	if c.runOffs != nil {
		return RunEncoded
	}
	return Sparse
}

// Cap returns the chunk's cell capacity.
func (c *Chunk) Cap() int { return c.cap }

// Len returns the number of non-null cells.
func (c *Chunk) Len() int { return c.n }

// Occupancy returns the fraction of non-null cells.
func (c *Chunk) Occupancy() float64 {
	if c.cap == 0 {
		return 0
	}
	return float64(c.n) / float64(c.cap)
}

func (c *Chunk) checkOff(off int) {
	if off < 0 || off >= c.cap {
		panic(fmt.Sprintf("chunk: offset %d out of capacity %d", off, c.cap))
	}
}

// Get returns the value at the in-chunk offset, or NaN when absent.
func (c *Chunk) Get(off int) float64 {
	c.checkOff(off)
	if c.dense != nil {
		return c.dense[off]
	}
	if c.runOffs != nil {
		return c.runGet(off)
	}
	i := sort.Search(len(c.offs), func(i int) bool { return c.offs[i] >= int32(off) })
	if i < len(c.offs) && c.offs[i] == int32(off) {
		return c.vals[i]
	}
	return math.NaN()
}

// Set writes v at the in-chunk offset; NaN deletes. A sparse chunk that
// grows past the density threshold is promoted to dense; a run-encoded
// chunk is decoded first (copy-on-write: runs are immutable).
func (c *Chunk) Set(off int, v float64) {
	c.checkOff(off)
	if c.runOffs != nil {
		c.decodeRuns()
	}
	if c.dense != nil {
		was := !math.IsNaN(c.dense[off])
		now := !math.IsNaN(v)
		c.dense[off] = v
		switch {
		case now && !was:
			c.n++
		case !now && was:
			c.n--
		}
		return
	}
	i := sort.Search(len(c.offs), func(i int) bool { return c.offs[i] >= int32(off) })
	present := i < len(c.offs) && c.offs[i] == int32(off)
	if math.IsNaN(v) {
		if present {
			c.offs = append(c.offs[:i], c.offs[i+1:]...)
			c.vals = append(c.vals[:i], c.vals[i+1:]...)
			c.n--
		}
		return
	}
	if present {
		c.vals[i] = v
		return
	}
	c.offs = append(c.offs, 0)
	copy(c.offs[i+1:], c.offs[i:])
	c.offs[i] = int32(off)
	c.vals = append(c.vals, 0)
	copy(c.vals[i+1:], c.vals[i:])
	c.vals[i] = v
	c.n++
	if c.Occupancy() > sparseThreshold {
		c.toDense()
	}
}

// Add accumulates v into the cell at off (Null cells start at 0). Used
// by aggregation and merging.
func (c *Chunk) Add(off int, v float64) {
	if math.IsNaN(v) {
		return
	}
	cur := c.Get(off)
	if math.IsNaN(cur) {
		c.Set(off, v)
		return
	}
	c.Set(off, cur+v)
}

// DenseCells returns a dense chunk's cell array, Null where empty, and
// nil for the other representations: random access without a call per
// cell for a reader that visits chosen offsets. Readers must not write
// it.
func (c *Chunk) DenseCells() []float64 { return c.dense }

// ForEach calls fn for every non-null cell in ascending offset order.
func (c *Chunk) ForEach(fn func(off int, v float64) bool) {
	if c.dense != nil {
		for off, v := range c.dense {
			if !math.IsNaN(v) {
				if !fn(off, v) {
					return
				}
			}
		}
		return
	}
	if c.runOffs != nil {
		for i, off := range c.runOffs {
			v := c.runVals[i]
			for j := 0; j < int(c.runLens[i]); j++ {
				if !fn(int(off)+j, v) {
					return
				}
			}
		}
		return
	}
	for i, off := range c.offs {
		if !fn(int(off), c.vals[i]) {
			return
		}
	}
}

// toDense expands a sparse or run-encoded chunk to the dense array.
func (c *Chunk) toDense() {
	d := make([]float64, c.cap)
	nullFill(d)
	c.scatter(d, false)
	c.dense = d
	c.offs, c.vals = nil, nil
	c.runOffs, c.runLens, c.runVals = nil, nil, nil
}

func (c *Chunk) toSparse() {
	offs := make([]int32, 0, c.n)
	vals := make([]float64, 0, c.n)
	for off, v := range c.dense {
		if !math.IsNaN(v) {
			offs = append(offs, int32(off))
			vals = append(vals, v)
		}
	}
	c.offs, c.vals = offs, vals
	c.dense = nil
}

// Compress converts a dense chunk below the density threshold to sparse.
// It reports whether a conversion happened.
func (c *Chunk) Compress() bool {
	if c.dense != nil && c.Occupancy() <= sparseThreshold {
		c.toSparse()
		return true
	}
	return false
}

// ForceSparse converts a dense or run-encoded chunk to the sparse
// representation regardless of occupancy. Above the density threshold
// this *grows* the footprint (12 bytes per cell vs. 8); it exists for
// representation ablations.
func (c *Chunk) ForceSparse() bool {
	if c.runOffs != nil {
		c.decodeRuns()
		if c.dense != nil {
			c.toSparse()
		}
		return true
	}
	if c.dense == nil {
		return false
	}
	c.toSparse()
	return true
}

// Clone returns an independent copy.
func (c *Chunk) Clone() *Chunk {
	out := &Chunk{cap: c.cap, n: c.n}
	switch {
	case c.dense != nil:
		out.dense = append([]float64(nil), c.dense...)
	case c.runOffs != nil:
		out.runOffs = append([]int32(nil), c.runOffs...)
		out.runLens = append([]int32(nil), c.runLens...)
		out.runVals = append([]float64(nil), c.runVals...)
	default:
		out.offs = append([]int32(nil), c.offs...)
		out.vals = append([]float64(nil), c.vals...)
	}
	return out
}

// MemBytes estimates the chunk's resident size in bytes, used by memory
// accounting in the engine, the buffer pool's eviction budget and the
// MMST computation. A run-encoded chunk is charged its encoded size (16
// bytes per run), not its logical cell capacity.
func (c *Chunk) MemBytes() int {
	if c.dense != nil {
		return 8 * c.cap
	}
	if c.runOffs != nil {
		return 16 * len(c.runOffs)
	}
	return 12 * len(c.offs)
}
