// Package core implements the paper's primary contribution: efficient
// evaluation of what-if queries over a chunked cube — the perspective
// cube of §5. The engine plans which chunks hold instances of the
// query's varying members, builds the merge dependency graph between
// them, orders reads with the pebbling heuristic (§5.2), and produces a
// queryable view that relocates cell values between related instances
// per the chosen perspective semantics, without copying the base cube.
package core

import (
	"fmt"

	"whatifolap/internal/algebra"
	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/perspective"
)

// viewStore overlays relocated rows of the varying dimension on top of
// the (unmodified) base store. Rows whose varying leaf ordinal is in
// scope read from the overlay; all other rows read from the base,
// optionally through an ordinal remap (positive scenarios extend the
// varying dimension, shifting leaf ordinals).
type viewStore struct {
	base cube.Store
	// overlay holds the relocated cells: the scan's one product — the
	// single task's overlay, or the first task's after it absorbed the
	// others — or the multi-MDX simulation's merged overlay. Reads of
	// scoped rows resolve here with pure integer (chunkID, offset)
	// arithmetic and one map probe.
	overlay *chunk.Overlay
	vi      int
	// scoped marks varying leaf ordinals (in view coordinates) owned by
	// the overlay.
	scoped []bool
	// baseOrd maps a view varying ordinal to the base store's varying
	// ordinal, or -1 when the row exists only in the view (new
	// instances). nil means identity.
	baseOrd []int
}

// Get implements cube.Store. The remapped read rewrites the varying
// ordinal in the caller's address for the length of the base read and
// restores it, rather than copying the address per cell: an address
// belongs to the goroutine reading with it.
func (s *viewStore) Get(addr []int) float64 {
	o := addr[s.vi]
	if s.scoped[o] {
		return s.overlay.Get(addr)
	}
	if s.baseOrd == nil {
		return s.base.Get(addr)
	}
	bo := s.baseOrd[o]
	if bo < 0 {
		return cube.Null
	}
	addr[s.vi] = bo
	v := s.base.Get(addr)
	addr[s.vi] = o
	return v
}

// Set implements cube.Store. Views are read-only products of a what-if
// query; writing through one indicates a bug in the caller.
func (s *viewStore) Set(addr []int, v float64) {
	panic("core: perspective views are read-only")
}

// NonNull implements cube.Store: base rows outside the scope first
// (remapped if needed), then the overlay rows.
func (s *viewStore) NonNull(fn func(addr []int, v float64) bool) {
	// Invert the remap so base ordinals translate to view ordinals.
	var toView []int
	if s.baseOrd != nil {
		max := 0
		for _, bo := range s.baseOrd {
			if bo > max {
				max = bo
			}
		}
		toView = make([]int, max+1)
		for i := range toView {
			toView[i] = -1
		}
		for vo, bo := range s.baseOrd {
			if bo >= 0 {
				toView[bo] = vo
			}
		}
	}
	stopped := false
	out := make([]int, 0, 8)
	s.base.NonNull(func(addr []int, v float64) bool {
		vo := addr[s.vi]
		if toView != nil {
			if vo >= len(toView) || toView[vo] < 0 {
				return true
			}
			vo = toView[vo]
		}
		if s.scoped[vo] {
			return true // overlay owns this row
		}
		out = append(out[:0], addr...)
		out[s.vi] = vo
		if !fn(out, v) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	s.overlay.NonNull(fn)
}

// Len implements cube.Store.
func (s *viewStore) Len() int {
	n := 0
	s.NonNull(func(addr []int, v float64) bool { n++; return true })
	return n
}

// Clone implements cube.Store by materializing the view into a MemStore.
func (s *viewStore) Clone() cube.Store {
	arity := 0
	s.NonNull(func(addr []int, v float64) bool { arity = len(addr); return false })
	if arity == 0 {
		// Empty view; infer arity from the overlay.
		return s.overlay.Clone()
	}
	out := cube.NewMemStore(arity)
	s.NonNull(func(addr []int, v float64) bool {
		out.Set(addr, v)
		return true
	})
	return out
}

// View is the queryable result of a what-if query: a perspective cube.
// Leaf cells reflect the hypothetical scenario; non-leaf cells are
// evaluated on demand under the view's mode (visual re-aggregates over
// the scenario, non-visual retains input aggregates).
type View struct {
	input  *cube.Cube
	result *cube.Cube
	mode   perspective.Mode
	// Stats describes how the engine executed the query.
	Stats Stats
}

// Input returns the query's input cube.
func (v *View) Input() *cube.Cube { return v.input }

// Result returns the perspective cube. Its dimensions may extend the
// input's (positive scenarios add member instances); its store is a
// read-only overlay over the input's.
func (v *View) Result() *cube.Cube { return v.result }

// Mode returns the non-leaf evaluation mode.
func (v *View) Mode() perspective.Mode { return v.mode }

// Cell evaluates one cell of the perspective cube, resolving member IDs
// against the result cube's dimensions.
func (v *View) Cell(ids []dimension.MemberID) (float64, error) {
	return algebra.CellValue(v.input, v.result, ids, v.mode)
}

// CellRefs evaluates a cell given member references (paths or
// unambiguous names), one per dimension in schema order.
func (v *View) CellRefs(refs ...string) (float64, error) {
	if len(refs) != v.result.NumDims() {
		return cube.Null, fmt.Errorf("core: %d refs for %d dimensions", len(refs), v.result.NumDims())
	}
	ids := make([]dimension.MemberID, len(refs))
	for i, r := range refs {
		id, err := v.result.Dim(i).Lookup(r)
		if err != nil {
			return cube.Null, err
		}
		ids[i] = id
	}
	return v.Cell(ids)
}

// Stats describes one engine execution.
type Stats struct {
	// MembersInScope is the number of base members the query covered.
	MembersInScope int
	// SourceInstances is the number of member instances whose rows the
	// engine had to read.
	SourceInstances int
	// RelevantChunks is the number of materialized chunks holding those
	// rows.
	RelevantChunks int
	// ChunksRead counts chunk reads performed (≥ RelevantChunks only if
	// re-reads happen; the engine reads each relevant chunk once).
	ChunksRead int
	// CellsRelocated counts leaf cells written into the overlay.
	CellsRelocated int
	// CellsScanned counts source cells the scan visited (non-null
	// cells iterated across scheduled chunks; run-encoded chunks count
	// their run lengths) before relocation filtering. Scanned ÷ cells
	// returned to the client is the scan-amplification trend the
	// serving layer's /metrics/history tracks.
	CellsScanned int
	// MergeEdges is the number of edges in the merge dependency graph.
	MergeEdges int
	// PeakResidentChunks is the peak number of chunks that must be
	// co-resident under the chosen read order (pebbling peak).
	PeakResidentChunks int
	// MergeGroups is the number of merge groups (chunks sharing all
	// non-varying coordinates).
	MergeGroups int
	// PlanMs, ScanMs and ProjectMs are the per-stage wall times in
	// milliseconds: plan (target pruning, merge graph, read scheduling),
	// scan (chunk reads + cell relocation), project (grid projection,
	// filled in by the mdx layer).
	PlanMs float64
	ScanMs float64
	// MergeMs is always 0: the scan writes one overlay, so there is no
	// merge stage. It stays for callers that still subtract it.
	MergeMs   float64
	ProjectMs float64
	// Ranges is the number of perspective ranges processed (dynamic
	// semantics only).
	Ranges int
	// DiskCostMs is the modeled I/O time if a simulated disk is
	// attached, else 0. Accumulated from the per-read costs the chunk
	// store's cost hook returns, so a query is charged for exactly its
	// own reads even when concurrent queries share the disk.
	DiskCostMs float64
	// SpillFaults counts chunk reads this query satisfied from the
	// segment file (buffer-pool misses), else 0 on an unpooled store.
	SpillFaults int
	// FaultMs is the wall time those faults took inside the buffer pool
	// (tier read, checksum, decode) — the part of ScanMs a cold pool
	// costs.
	FaultMs float64
	// CompressedBytes is the relocation-mapping footprint when the
	// query ran compressed (ExecPerspectiveCompressed), else 0.
	CompressedBytes int
}

// Add accumulates s2 into s (used by the multiple-MDX simulation, which
// sums the work of its individual queries).
func (s *Stats) Add(s2 Stats) {
	s.MembersInScope += s2.MembersInScope
	s.SourceInstances += s2.SourceInstances
	s.RelevantChunks += s2.RelevantChunks
	s.ChunksRead += s2.ChunksRead
	s.CellsRelocated += s2.CellsRelocated
	s.CellsScanned += s2.CellsScanned
	s.MergeEdges += s2.MergeEdges
	if s2.PeakResidentChunks > s.PeakResidentChunks {
		s.PeakResidentChunks = s2.PeakResidentChunks
	}
	if s2.MergeGroups > s.MergeGroups {
		s.MergeGroups = s2.MergeGroups
	}
	s.Ranges += s2.Ranges
	s.DiskCostMs += s2.DiskCostMs
	s.SpillFaults += s2.SpillFaults
	s.FaultMs += s2.FaultMs
	s.PlanMs += s2.PlanMs
	s.ScanMs += s2.ScanMs
	s.ProjectMs += s2.ProjectMs
}
