package chunk

import (
	"math"
	"sort"

	"whatifolap/internal/cube"
)

// Overlay is a chunk-grained sparse cell store: canonical chunk ID →
// dense-or-sparse Chunk under a Geometry. The engine's relocation scan
// lands in one, a slab or a value run at a time (SetCellsAt, SetRunAt:
// one map probe and one chunk-level write each, addressed by the
// (chunk ID, offset) the kernel derives from strides); the point path
// (Set: Geometry.SplitID plus one map probe) serves edits and tests. Nothing allocates once the destination chunk exists and has
// room. Chunks start sparse and promote to dense past the occupancy
// threshold, exactly like Store's cells.
//
// Overlay implements cube.Store. It is not safe for concurrent writers;
// concurrent readers are safe once writing has stopped (the engine
// builds an overlay in one scan goroutine, then publishes it read-only
// inside a view).
type Overlay struct {
	geom   *Geometry
	chunks map[int]*Chunk
	cells  int
	// promotions counts chunks that crossed the occupancy threshold and
	// switched from sparse to dense representation during writes — the
	// scan span's "overlay_promotions" attribute.
	promotions int
}

// NewOverlay creates an empty overlay under the geometry.
func NewOverlay(g *Geometry) *Overlay {
	return &Overlay{geom: g, chunks: make(map[int]*Chunk)}
}

// Geometry returns the overlay's chunking geometry.
func (o *Overlay) Geometry() *Geometry { return o.geom }

// Get implements cube.Store.
func (o *Overlay) Get(addr []int) float64 {
	id, off := o.geom.SplitID(addr)
	c := o.chunks[id]
	if c == nil {
		return math.NaN()
	}
	return c.Get(off)
}

// Set implements cube.Store. Setting NaN deletes; a chunk emptied by
// deletion is dropped.
func (o *Overlay) Set(addr []int, v float64) {
	id, off := o.geom.SplitID(addr)
	c := o.chunks[id]
	if c == nil {
		if math.IsNaN(v) {
			return
		}
		c = NewSparse(o.geom.ChunkCap())
		o.chunks[id] = c
	}
	before := c.Len()
	wasSparse := c.dense == nil
	c.Set(off, v)
	if wasSparse && c.dense != nil {
		o.promotions++
	}
	o.cells += c.Len() - before
	if c.Len() == 0 {
		delete(o.chunks, id)
	}
}

// Promotions returns how many sparse→dense representation promotions
// the overlay's writes have triggered so far.
func (o *Overlay) Promotions() int { return o.promotions }

// SetRunAt writes n copies of v starting at offset off of the chunk
// with canonical ID id — the slab kernel's write path for value runs.
// One map probe and one chunk-level run write cover the whole segment.
// v must be non-Null and the run must lie inside the chunk (the kernel
// cuts runs at slab boundaries, so both hold by construction).
func (o *Overlay) SetRunAt(id, off, n int, v float64) {
	c := o.chunks[id]
	if c == nil {
		c = NewSparse(o.geom.ChunkCap())
		o.chunks[id] = c
	}
	before := c.Len()
	wasSparse := c.dense == nil
	c.SetRun(off, n, v)
	if wasSparse && c.dense != nil {
		o.promotions++
	}
	o.cells += c.Len() - before
}

// SetCellsAt writes the non-null entries of cells at offsets off, off+1,
// … of the chunk with canonical ID id and returns how many it wrote —
// the slab kernel's write path for cells of distinct values. Null
// entries are holes (Chunk.SetCells); a slab of nothing but holes
// materializes no chunk. One map probe and one chunk-level splice cover
// the whole slab.
func (o *Overlay) SetCellsAt(id, off int, cells []float64) int {
	c := o.chunks[id]
	if c == nil {
		if countCells(cells) == 0 {
			return 0
		}
		c = NewSparse(o.geom.ChunkCap())
		o.chunks[id] = c
	}
	wasSparse := c.dense == nil
	before := c.Len()
	n := c.SetCells(off, cells)
	if wasSparse && c.dense != nil {
		o.promotions++
	}
	o.cells += c.Len() - before
	return n
}

// ChunkIDs returns the canonical IDs of the overlay's chunks, sorted,
// in a slice the caller owns.
func (o *Overlay) ChunkIDs() []int {
	ids := make([]int, 0, len(o.chunks))
	for id := range o.chunks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Chunk returns the chunk with canonical ID id, nil when the overlay
// holds none. Readers must not write it.
func (o *Overlay) Chunk(id int) *Chunk { return o.chunks[id] }

// NonNull implements cube.Store. Chunks are visited in canonical ID
// order, cells within a chunk in offset order, so iteration is
// deterministic.
func (o *Overlay) NonNull(fn func(addr []int, v float64) bool) {
	ids := o.ChunkIDs()
	addr := make([]int, o.geom.NumDims())
	ccoord := make([]int, o.geom.NumDims())
	stop := false
	// One closure per NonNull call, hoisted out of the chunk loop: it
	// captures only loop-invariant state (ccoord is updated in place).
	emit := func(off int, v float64) bool {
		o.geom.Join(ccoord, off, addr)
		if !fn(addr, v) {
			stop = true
			return false
		}
		return true
	}
	for _, id := range ids {
		c := o.chunks[id]
		o.geom.CoordOf(id, ccoord)
		c.ForEach(emit)
		if stop {
			return
		}
	}
}

// Len implements cube.Store.
func (o *Overlay) Len() int { return o.cells }

// Clone implements cube.Store.
func (o *Overlay) Clone() cube.Store {
	out := NewOverlay(o.geom)
	for id, c := range o.chunks {
		out.chunks[id] = c.Clone()
	}
	out.cells = o.cells
	return out
}

// NumChunks returns the number of materialized overlay chunks.
func (o *Overlay) NumChunks() int { return len(o.chunks) }

// MemBytes estimates the overlay's resident size.
func (o *Overlay) MemBytes() int {
	n := 0
	for _, c := range o.chunks {
		n += c.MemBytes()
	}
	return n
}
