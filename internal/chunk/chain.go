package chunk

import (
	"math"
	"sort"
	"strconv"

	"whatifolap/internal/cube"
)

// This file is the scenario-workspace read hot path: a query against a
// scenario resolves every cell through Chain.Get (or, chunk at a time,
// through Chain.Resolve for the engine's scan), so nothing here may
// allocate per resolved cell or format. verify.sh's whatiflint gate
// enforces the no-fmt rule for this file.

// Layer is one immutable delta in a scenario's layer chain: cell writes
// in a values overlay plus explicit deletes in a tombstone overlay.
// The two overlays are disjoint by construction (a write clears the
// cell's tombstone and vice versa), so resolution needs no precedence
// rule within a layer.
//
// A layer is built single-threaded by one edit batch and then sealed:
// scenarios never mutate a layer that a chain snapshot can see, which
// is what makes sharing a parent's layers across forks safe.
type Layer struct {
	values  *Overlay
	deletes *Overlay
	sealed  bool
}

// sealedError is the panic value for edits on a sealed layer: a
// zero-sized sentinel, so raising it never allocates on this hot-path
// file.
type sealedError struct{}

func (sealedError) Error() string { return "chunk: Set/Delete on a sealed Layer" }

// NewLayer creates an empty layer under the geometry.
func NewLayer(g *Geometry) *Layer {
	return &Layer{values: NewOverlay(g), deletes: NewOverlay(g)}
}

// Geometry returns the layer's chunking geometry.
func (l *Layer) Geometry() *Geometry { return l.values.geom }

// Seal freezes the layer: further Set/Delete calls panic. Sealing is
// idempotent. Scenarios seal every layer before linking it into a
// chain, so a chain snapshot can never observe mutation — whatiflint's
// releasepair rule pairs each NewLayer with a Seal on every path.
func (l *Layer) Seal() { l.sealed = true }

// Sealed reports whether the layer is frozen.
func (l *Layer) Sealed() bool { return l.sealed }

// Set writes v at addr. Setting NaN is a delete.
func (l *Layer) Set(addr []int, v float64) {
	if l.sealed {
		panic(sealedError{})
	}
	if math.IsNaN(v) {
		l.Delete(addr)
		return
	}
	l.deletes.Set(addr, math.NaN()) // clear any tombstone
	l.values.Set(addr, v)
}

// Delete writes a tombstone at addr: the cell reads as absent through
// the chain even when an older layer or the base holds a value.
func (l *Layer) Delete(addr []int) {
	if l.sealed {
		panic(sealedError{})
	}
	l.values.Set(addr, math.NaN())
	l.deletes.Set(addr, 1)
}

// Cells returns the number of cells the layer overrides (writes plus
// tombstones).
func (l *Layer) Cells() int { return l.values.Len() + l.deletes.Len() }

// Values returns the layer's write overlay (read-only use).
func (l *Layer) Values() *Overlay { return l.values }

// Deletes returns the layer's tombstone overlay (read-only use).
func (l *Layer) Deletes() *Overlay { return l.deletes }

// MemBytes estimates the layer's resident size.
func (l *Layer) MemBytes() int { return l.values.MemBytes() + l.deletes.MemBytes() }

// deleted reports whether the layer tombstones addr.
func (l *Layer) deleted(addr []int) bool { return !math.IsNaN(l.deletes.Get(addr)) }

// Chain is the scenario workspace's read path: a base store under an
// ordered list of delta layers, newest layer wins, tombstones read as
// absent. It implements cube.Store read-only; a Get is a bounds check
// plus two overlay probes per layer (pure integer arithmetic and map
// lookups — zero allocations per resolved cell), falling through to
// the base for untouched cells.
//
// Layers may carry a wider geometry than the base (hypothetical new
// dimension members live at leaf ordinals above the base extent); the
// per-layer bounds check routes such addresses past narrower layers
// and past the base. A chain whose base is a *Store and whose layers
// all share the base geometry is "engine capable": the perspective
// engine can scan it chunk by chunk through Resolve.
//
// A chain is an immutable snapshot: scenarios build a fresh Chain per
// query from their sealed layers, so concurrent readers never race
// with edits.
type Chain struct {
	base       cube.Store
	baseChunks *Store // non-nil when base is chunk-backed
	baseExt    []int  // base extents guarding out-of-range base reads
	layers     []*Layer
	uniform    bool // all layers share the base chunk geometry
}

// NewChain snapshots base under the given layers (oldest first). The
// caller must not mutate the layers afterwards.
func NewChain(base cube.Store, layers []*Layer) *Chain {
	c := &Chain{base: base, layers: layers}
	if st, ok := base.(*Store); ok {
		c.baseChunks = st
		c.baseExt = st.Geometry().Extents
		c.uniform = true
		for _, l := range layers {
			if !sameGeometry(l.Geometry(), st.Geometry()) {
				c.uniform = false
				break
			}
		}
	}
	return c
}

// sameGeometry reports whether two geometries chunk the same space the
// same way.
func sameGeometry(a, b *Geometry) bool {
	if a == b {
		return true
	}
	if len(a.Extents) != len(b.Extents) {
		return false
	}
	for i := range a.Extents {
		if a.Extents[i] != b.Extents[i] || a.ChunkDims[i] != b.ChunkDims[i] {
			return false
		}
	}
	return true
}

// Base returns the chain's base store.
func (c *Chain) Base() cube.Store { return c.base }

// ChunkBase returns the base as a chunk store, or nil.
func (c *Chain) ChunkBase() *Store { return c.baseChunks }

// NumLayers returns the chain depth.
func (c *Chain) NumLayers() int { return len(c.layers) }

// CellsOverridden returns the total cells the layers override (writes
// plus tombstones, counted per layer — shadowed duplicates included).
func (c *Chain) CellsOverridden() int {
	n := 0
	for _, l := range c.layers {
		n += l.Cells()
	}
	return n
}

// EngineCapable reports whether the perspective engine can scan this
// chain chunk-natively: a chunk-backed base with every layer on the
// base geometry (scenarios that introduced hypothetical members carry
// wider layers and evaluate through the general path instead).
func (c *Chain) EngineCapable() bool { return c.baseChunks != nil && c.uniform }

// Get implements cube.Store: newest layer first (tombstone = absent,
// write = value), then the base. Zero allocations per call.
func (c *Chain) Get(addr []int) float64 {
	for i := len(c.layers) - 1; i >= 0; i-- {
		l := c.layers[i]
		if !l.values.geom.Contains(addr) {
			continue
		}
		if l.deleted(addr) {
			return math.NaN()
		}
		if v := l.values.Get(addr); !math.IsNaN(v) {
			return v
		}
	}
	if c.baseExt != nil && !containsAddr(c.baseExt, addr) {
		return math.NaN()
	}
	return c.base.Get(addr)
}

// containsAddr reports whether addr lies within the extents.
func containsAddr(ext []int, addr []int) bool {
	if len(addr) != len(ext) {
		return false
	}
	for i, a := range addr {
		if a < 0 || a >= ext[i] {
			return false
		}
	}
	return true
}

// Set implements cube.Store. Chains are read-only snapshots; edits go
// through the scenario's layer API.
func (c *Chain) Set(addr []int, v float64) {
	panic("chunk: scenario chains are read-only; write through a layer, not the chain (addr " + formatAddr(addr) + ")")
}

// formatAddr renders an address for panic messages without fmt (this
// file is a declared hot path; the panic runs only on caller bugs).
func formatAddr(addr []int) string {
	s := "["
	for i, a := range addr {
		if i > 0 {
			s += " "
		}
		s += strconv.Itoa(a)
	}
	return s + "]"
}

// touchedAbove reports whether any layer above i (newer) overrides addr
// with a write or a tombstone.
func (c *Chain) touchedAbove(i int, addr []int) bool {
	for j := len(c.layers) - 1; j > i; j-- {
		l := c.layers[j]
		if !l.values.geom.Contains(addr) {
			continue
		}
		if l.deleted(addr) || !math.IsNaN(l.values.Get(addr)) {
			return true
		}
	}
	return false
}

// NonNull implements cube.Store: layer writes newest-first (each cell
// emitted once, at the newest layer that owns it), then base cells no
// layer overrides. Deterministic given deterministic layer iteration.
func (c *Chain) NonNull(fn func(addr []int, v float64) bool) {
	stopped := false
	for i := len(c.layers) - 1; i >= 0 && !stopped; i-- {
		li := i
		// One closure per layer, not per cell: layers are few.
		c.layers[i].values.NonNull(func(addr []int, v float64) bool {
			if c.touchedAbove(li, addr) {
				return true
			}
			if !fn(addr, v) {
				stopped = true
				return false
			}
			return true
		})
	}
	if stopped {
		return
	}
	c.base.NonNull(func(addr []int, v float64) bool {
		if c.touchedAbove(-1, addr) {
			return true
		}
		return fn(addr, v)
	})
}

// Len implements cube.Store.
func (c *Chain) Len() int {
	n := 0
	c.NonNull(func(addr []int, v float64) bool { n++; return true })
	return n
}

// Clone implements cube.Store by flattening the resolved view into a
// MemStore (commit paths materialize through the scenario instead, so
// this is only for generic Store callers).
func (c *Chain) Clone() cube.Store {
	arity := 0
	if c.baseExt != nil {
		arity = len(c.baseExt)
	} else if len(c.layers) > 0 {
		arity = c.layers[0].Geometry().NumDims()
	}
	out := cube.NewMemStore(arity)
	c.NonNull(func(addr []int, v float64) bool {
		out.Set(addr, v)
		return true
	})
	return out
}

// LayerChunkIDs returns the sorted union of chunk IDs the layers
// touch. Only meaningful on an engine-capable chain, where layer and
// base chunk IDs share one geometry; the engine unions these with the
// base's materialized chunks so scenario cells in chunks the base
// never materialized still get scanned.
func (c *Chain) LayerChunkIDs() []int {
	seen := map[int]bool{}
	for _, l := range c.layers {
		for _, o := range [2]*Overlay{l.values, l.deletes} {
			for id := range o.chunks {
				seen[id] = true
			}
		}
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Resolve returns chunk id as the chain reads it, for the engine's scan.
// A chunk no layer touches passes through as stored: base itself, in
// whatever representation, nil when the base never materialized it.
// Otherwise the result is scratch — a dense chunk of the geometry's
// capacity that the caller reuses across calls — overwritten with the
// base's cells and then each layer's tombstones and writes, oldest layer
// first so the newest wins; nil when nothing is left. Requires an
// engine-capable chain (one shared geometry); the work is array writes
// and two map probes per layer, no callback and no allocation.
func (c *Chain) Resolve(id int, base, scratch *Chunk) *Chunk {
	if !c.uniform {
		panic("chunk: Resolve on a non-uniform chain (id " + strconv.Itoa(id) + ")")
	}
	first := 0
	for first < len(c.layers) && c.layers[first].values.chunks[id] == nil && c.layers[first].deletes.chunks[id] == nil {
		first++
	}
	if first == len(c.layers) {
		return base
	}
	d := scratch.dense
	nullFill(d)
	if base != nil {
		base.scatter(d, false)
	}
	for _, l := range c.layers[first:] {
		for i, o := range [2]*Overlay{l.deletes, l.values} {
			if ch := o.chunks[id]; ch != nil {
				// scatter's closure stays on the stack; TestScenarioChainMergedAllocs
				// pins Resolve at 0 allocations.
				ch.scatter(d, i == 0)
			}
		}
	}
	if scratch.n = countCells(d); scratch.n == 0 {
		return nil
	}
	return scratch
}
