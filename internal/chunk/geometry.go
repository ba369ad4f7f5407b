// Package chunk implements the multidimensional array-chunking storage
// scheme of Zhao, Deshpande and Naughton (SIGMOD'97), which the paper
// uses as the physical organization of the cube (§5, §6: "the cube is
// physically organized using a multidimensional array-chunking scheme
// similar to that proposed in [19]").
//
// The n-dimensional cell space is partitioned into n-dimensional chunks.
// Chunks are enumerated in a dimension order: the first dimension of the
// order varies fastest, matching Fig. 6 of the paper where order ABC
// numbers the chunks 1..64 with A varying fastest. Dense chunks hold a
// full float64 array; sparse chunks hold sorted (offset, value) pairs.
package chunk

import (
	"fmt"
	"math"
)

// Geometry describes the chunking of an n-dimensional cell space.
type Geometry struct {
	// Extents is the number of leaf members per dimension.
	Extents []int
	// ChunkDims is the chunk edge length per dimension.
	ChunkDims []int
	// chunksPer[i] = ceil(Extents[i]/ChunkDims[i]).
	chunksPer []int
	chunkCap  int
}

// NewGeometry validates and builds a Geometry.
func NewGeometry(extents, chunkDims []int) (*Geometry, error) {
	if len(extents) == 0 || len(extents) != len(chunkDims) {
		return nil, fmt.Errorf("chunk: geometry arity mismatch: %d extents, %d chunk dims", len(extents), len(chunkDims))
	}
	g := &Geometry{
		Extents:   append([]int(nil), extents...),
		ChunkDims: append([]int(nil), chunkDims...),
		chunksPer: make([]int, len(extents)),
		chunkCap:  1,
	}
	cells := 1
	for i := range extents {
		if extents[i] <= 0 {
			return nil, fmt.Errorf("chunk: extent %d of dimension %d must be positive", extents[i], i)
		}
		if chunkDims[i] <= 0 {
			return nil, fmt.Errorf("chunk: chunk dim %d of dimension %d must be positive", chunkDims[i], i)
		}
		if chunkDims[i] > extents[i] {
			g.ChunkDims[i] = extents[i]
		}
		if cells > math.MaxInt/extents[i] {
			return nil, fmt.Errorf("chunk: geometry %v has more cells than an int counts", extents)
		}
		cells *= extents[i]
		g.chunksPer[i] = (extents[i] + g.ChunkDims[i] - 1) / g.ChunkDims[i]
		g.chunkCap *= g.ChunkDims[i]
	}
	// Chunks address their cells with int32 offsets.
	if g.chunkCap > math.MaxInt32 {
		return nil, fmt.Errorf("chunk: chunk capacity %d exceeds the int32 offset range", g.chunkCap)
	}
	return g, nil
}

// MustGeometry is NewGeometry that panics on error.
func MustGeometry(extents, chunkDims []int) *Geometry {
	g, err := NewGeometry(extents, chunkDims)
	if err != nil {
		panic(err)
	}
	return g
}

// NumDims returns the number of dimensions.
func (g *Geometry) NumDims() int { return len(g.Extents) }

// ChunksPerDim returns the number of chunks along dimension i.
func (g *Geometry) ChunksPerDim(i int) int { return g.chunksPer[i] }

// NumChunks returns the total number of chunk positions.
func (g *Geometry) NumChunks() int {
	n := 1
	for _, c := range g.chunksPer {
		n *= c
	}
	return n
}

// ChunkCap returns the number of cell slots per (full) chunk.
func (g *Geometry) ChunkCap() int { return g.chunkCap }

// ChunkIDStride returns the canonical-ID increment of one step along
// dimension dim's chunk coordinate (IDs are row-major over chunk
// coordinates). The relocation kernel derives destination chunk IDs
// with it instead of recomposing full coordinates.
func (g *Geometry) ChunkIDStride(dim int) int {
	stride := 1
	for i := dim + 1; i < len(g.chunksPer); i++ {
		stride *= g.chunksPer[i]
	}
	return stride
}

// OffsetStride returns the in-chunk offset increment of one step along
// dimension dim (offsets are row-major over chunk-local digits, last
// dimension fastest). Strides nest — each is a multiple of every
// smaller one — so an aligned block of stride offsets holds dimension
// dim's chunk-local digit, and every slower dimension's, constant: the
// relocation kernel's slab is such a block.
func (g *Geometry) OffsetStride(dim int) int {
	stride := 1
	for i := dim + 1; i < len(g.ChunkDims); i++ {
		stride *= g.ChunkDims[i]
	}
	return stride
}

// Contains reports whether addr is a valid cell address under the
// geometry: matching arity, every ordinal within its extent. Scenario
// layer chains use it to route an address past layers (or a base) too
// narrow to hold it, since Split/SplitID panic on out-of-range
// ordinals. Allocation-free.
func (g *Geometry) Contains(addr []int) bool {
	if len(addr) != len(g.Extents) {
		return false
	}
	for i, a := range addr {
		if a < 0 || a >= g.Extents[i] {
			return false
		}
	}
	return true
}

// Split decomposes a cell address into chunk coordinates and the
// in-chunk offset. The chunk coordinate and offset slices are written
// into ccoord (which must have NumDims length); the offset is returned.
func (g *Geometry) Split(addr []int, ccoord []int) int {
	off := 0
	for i, a := range addr {
		if a < 0 || a >= g.Extents[i] {
			panic(fmt.Sprintf("chunk: ordinal %d out of extent %d in dimension %d", a, g.Extents[i], i))
		}
		ccoord[i] = a / g.ChunkDims[i]
		off = off*g.ChunkDims[i] + a%g.ChunkDims[i]
	}
	return off
}

// SplitID decomposes a cell address directly into the canonical chunk
// ID and the in-chunk offset, without materializing the intermediate
// chunk coordinate. It is the fusion of Split and CanonicalID and
// allocates nothing — point reads and writes (Store.Get, Overlay.Get and
// Set, the scenario chain) call it once per cell.
func (g *Geometry) SplitID(addr []int) (id, off int) {
	for i, a := range addr {
		if a < 0 || a >= g.Extents[i] {
			panic(fmt.Sprintf("chunk: ordinal %d out of extent %d in dimension %d", a, g.Extents[i], i))
		}
		id = id*g.chunksPer[i] + a/g.ChunkDims[i]
		off = off*g.ChunkDims[i] + a%g.ChunkDims[i]
	}
	return id, off
}

// Join recomposes a cell address from chunk coordinates and in-chunk
// offset, writing into addr.
func (g *Geometry) Join(ccoord []int, off int, addr []int) {
	for i := g.NumDims() - 1; i >= 0; i-- {
		addr[i] = ccoord[i]*g.ChunkDims[i] + off%g.ChunkDims[i]
		off /= g.ChunkDims[i]
	}
}

// CanonicalID linearizes chunk coordinates in schema order with the last
// dimension varying fastest (row-major). Canonical IDs key the store.
func (g *Geometry) CanonicalID(ccoord []int) int {
	id := 0
	for i, c := range ccoord {
		if c < 0 || c >= g.chunksPer[i] {
			panic(fmt.Sprintf("chunk: chunk coordinate %d out of range %d in dimension %d", c, g.chunksPer[i], i))
		}
		id = id*g.chunksPer[i] + c
	}
	return id
}

// CoordOf inverts CanonicalID, writing into ccoord.
func (g *Geometry) CoordOf(id int, ccoord []int) {
	for i := g.NumDims() - 1; i >= 0; i-- {
		ccoord[i] = id % g.chunksPer[i]
		id /= g.chunksPer[i]
	}
}

// OrderID linearizes chunk coordinates in the given dimension order,
// with order[0] varying fastest — the paper's "reading chunks in
// dimension order D_{m1}, ..., D_{mn}" (Fig. 6: order ABC numbers chunks
// 1..64 with A varying fastest).
func (g *Geometry) OrderID(ccoord []int, order []int) int {
	id := 0
	for k := len(order) - 1; k >= 0; k-- {
		d := order[k]
		id = id*g.chunksPer[d] + ccoord[d]
	}
	return id
}

// EnumerateOrder returns all chunk coordinates sorted by OrderID for the
// given dimension order. The order must be a permutation of 0..n-1.
func (g *Geometry) EnumerateOrder(order []int) ([][]int, error) {
	if err := g.checkOrder(order); err != nil {
		return nil, err
	}
	total := g.NumChunks()
	out := make([][]int, 0, total)
	cur := make([]int, g.NumDims())
	for i := 0; i < total; i++ {
		out = append(out, append([]int(nil), cur...))
		// Increment in the given order: order[0] fastest.
		for k := 0; k < len(order); k++ {
			d := order[k]
			cur[d]++
			if cur[d] < g.chunksPer[d] {
				break
			}
			cur[d] = 0
		}
	}
	return out, nil
}

func (g *Geometry) checkOrder(order []int) error {
	if len(order) != g.NumDims() {
		return fmt.Errorf("chunk: order has %d dims, geometry has %d", len(order), g.NumDims())
	}
	seen := make([]bool, g.NumDims())
	for _, d := range order {
		if d < 0 || d >= g.NumDims() || seen[d] {
			return fmt.Errorf("chunk: order %v is not a permutation of 0..%d", order, g.NumDims()-1)
		}
		seen[d] = true
	}
	return nil
}

// ChunkRangeOf returns the half-open range of chunk indices along
// dimension d that cover leaf ordinals [lo, hi).
func (g *Geometry) ChunkRangeOf(d, lo, hi int) (int, int) {
	if lo >= hi {
		return 0, 0
	}
	return lo / g.ChunkDims[d], (hi-1)/g.ChunkDims[d] + 1
}
