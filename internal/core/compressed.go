package core

import (
	"fmt"

	"whatifolap/internal/cube"
	"whatifolap/internal/perspective"
)

// This file implements the paper's third future-work item (§8):
// "compression of perspective cubes". A perspective cube differs from
// its input only by moving cell values between instances of the same
// member, so instead of materializing the relocated rows (O(cells) for
// the scoped members), the cube can be represented by the relocation
// mapping itself (O(instances × parameter leaves)): every read of a
// scoped cell is answered by following the inverse mapping into the
// unmodified base store.
//
// The tradeoff: ExecPerspectiveCompressed does no chunk I/O at query
// planning time and holds only the mapping, but every cell read costs
// an extra indirection and the base store stays hot. The ablation
// AblationCompression quantifies both sides.

// mappedStore answers reads through a relocation mapping over the base
// store. For a scoped row o, the value at (o, t, ē) is the base value
// at (inverse[o][t], t, ē); unscoped rows read through unchanged.
type mappedStore struct {
	base   cube.Store
	vi, pi int
	scoped []bool
	// forward maps source ordinal -> destination per t, inverse
	// destination ordinal -> source per t.
	forward, inverse *RelocTable
}

// Get implements cube.Store. A scoped read rewrites the varying ordinal
// in the caller's address for the length of the base read and restores
// it, as viewStore.Get does, rather than copying the address per cell.
func (s *mappedStore) Get(addr []int) float64 {
	o := addr[s.vi]
	if !s.scoped[o] {
		return s.base.Get(addr)
	}
	row := s.inverse.Row(o)
	if row == nil {
		return cube.Null
	}
	src := row[addr[s.pi]]
	if src < 0 {
		return cube.Null
	}
	addr[s.vi] = src
	v := s.base.Get(addr)
	addr[s.vi] = o
	return v
}

// Set implements cube.Store; compressed views are read-only.
func (s *mappedStore) Set(addr []int, v float64) {
	panic("core: compressed perspective views are read-only")
}

// NonNull implements cube.Store: every base cell is emitted at its
// mapped position (or suppressed when it relocates to nowhere).
func (s *mappedStore) NonNull(fn func(addr []int, v float64) bool) {
	out := make([]int, 0, 8)
	s.base.NonNull(func(addr []int, v float64) bool {
		o := addr[s.vi]
		if !s.scoped[o] {
			return fn(addr, v)
		}
		row := s.forward.Row(o)
		if row == nil {
			return true // scoped row with no sources: vanished
		}
		dst := row[addr[s.pi]]
		if dst < 0 {
			return true
		}
		out = append(out[:0], addr...)
		out[s.vi] = dst
		return fn(out, v)
	})
}

// Len implements cube.Store.
func (s *mappedStore) Len() int {
	n := 0
	s.NonNull(func([]int, float64) bool { n++; return true })
	return n
}

// Clone implements cube.Store by materializing.
func (s *mappedStore) Clone() cube.Store {
	arity := 0
	s.NonNull(func(addr []int, v float64) bool { arity = len(addr); return false })
	if arity == 0 {
		arity = 1
	}
	out := cube.NewMemStore(arity)
	s.NonNull(func(addr []int, v float64) bool {
		out.Set(addr, v)
		return true
	})
	return out
}

// MappingBytes estimates the compressed representation's footprint:
// 8 bytes per (instance, parameter leaf) mapping entry, both directions.
func (s *mappedStore) MappingBytes() int {
	return 8 * s.forward.width * (s.forward.Len() + s.inverse.Len())
}

// ExecPerspectiveCompressed evaluates a perspective query without
// materializing relocated cells: the returned view's store routes every
// read through the relocation mapping. Results are identical to
// ExecPerspective; Stats reports zero chunk reads and relocations, and
// CompressedBytes carries the mapping footprint.
func (e *Engine) ExecPerspectiveCompressed(q PerspectiveQuery) (*View, error) {
	members, target, scoped, err := e.planPerspective(q)
	if err != nil {
		return nil, err
	}
	inverse := newRelocTable(e.store.Geometry(), e.vi, e.binding.Param.NumLeaves(), target.Len())
	target.each(func(srcOrd int, row []int) {
		for t, dst := range row {
			if dst < 0 {
				continue
			}
			irow := inverse.add(dst)
			if irow[t] >= 0 && irow[t] != srcOrd && err == nil {
				err = fmt.Errorf("core: relocation mapping not invertible at ordinal %d, t %d", dst, t)
			}
			irow[t] = srcOrd
		}
	})
	if err != nil {
		return nil, err
	}
	ms := &mappedStore{
		base: e.store, vi: e.vi, pi: e.pi,
		scoped: scoped, forward: target, inverse: inverse,
	}
	view := e.assemble(ms, nil, nil, q.Mode)
	view.Stats = Stats{
		MembersInScope:  len(members),
		SourceInstances: target.Len(),
		CompressedBytes: ms.MappingBytes(),
	}
	if q.Sem.Dynamic() {
		if norm, err := perspective.NormalizePerspectives(e.binding.Param, q.Perspectives); err == nil {
			view.Stats.Ranges = len(norm)
		}
	}
	return view, nil
}
