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

// viewStore, the engine's one read-through store, overlays relocated
// rows of the varying dimension on top of the (unmodified) base store. Rows whose varying leaf ordinal is in
// scope read from the overlay; all other rows read from the base at the
// same ordinal. A positive scenario's hypothetical instances take the
// ordinals at and past the base's extent, which the base lacks: there
// it reads Null.
type viewStore struct {
	base cube.Store
	// overlay holds the relocated cells: the scan's product, or the
	// multi-MDX simulation's merged overlay. Reads of scoped rows resolve
	// here with pure integer (chunkID, offset) arithmetic and one map
	// probe. It is nil only in the view a fused scan projects from inside
	// the engine (execute), which no caller receives.
	overlay *chunk.Overlay
	vi      int
	// scoped marks varying leaf ordinals (in view coordinates) owned by
	// the overlay.
	scoped []bool
	// extent is the base's varying extent.
	extent int
}

// Get implements cube.Store.
func (s *viewStore) Get(addr []int) float64 {
	switch o := addr[s.vi]; {
	case s.scoped[o]:
		return s.overlay.Get(addr)
	case o >= s.extent:
		return cube.Null
	}
	return s.base.Get(addr)
}

// Set implements cube.Store. Views are read-only products of a what-if
// query; writing through one indicates a bug in the caller.
func (s *viewStore) Set(addr []int, v float64) {
	panic("core: perspective views are read-only")
}

// NonNull implements cube.Store: base rows outside the scope first, then
// the overlay rows.
func (s *viewStore) NonNull(fn func(addr []int, v float64) bool) {
	stopped := false
	s.base.NonNull(func(addr []int, v float64) bool {
		if s.scoped[addr[s.vi]] {
			return true // overlay owns this row
		}
		if !fn(addr, v) {
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
	// engine is the engine whose overlay the result's viewStore holds,
	// sourceIDs the store's chunk IDs, ascending, as the plan listed them:
	// what the compiled projection (Project) reads.
	engine    *Engine
	sourceIDs []int
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
	// MembersInScope is the number of base members the query covered,
	// MembersMoved those it planned relocation for: the members Φ moves
	// (a fixed point of Φ is read as a base row, perspective.FixedPoint;
	// none when the grid reads no cell of a relocated row), or a change
	// relation's members.
	MembersInScope, MembersMoved int
	// SourceInstances is the number of instances of the moved members
	// whose rows the scan relocates.
	SourceInstances int
	// RelevantChunks is the number of materialized chunks holding those
	// rows: the plan's schedule.
	RelevantChunks int
	// ChunksRead counts the scan's chunk reads: its schedule and, when
	// the query was projected as it ran (ExecPerspectiveProjected), the
	// chunks it read for the grid's base and input cells alone
	// (ProjectStats.ChunksRead). Each is read once, so it is the number
	// of distinct chunks the query read.
	ChunksRead int
	// CellsRelocated counts leaf cells the scan moved: written into the
	// overlay, or folded into the grid's accumulators when it fused.
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
	// SpillFaults counts the chunk reads of ChunksRead this query
	// satisfied from the segment file (buffer-pool misses), else 0 on an
	// unpooled store.
	SpillFaults int
	// FaultMs is the wall time those faults took inside the buffer pool
	// (tier read, checksum, decode) — the part of ScanMs and ProjectMs a
	// cold pool costs.
	FaultMs float64
}

// Add accumulates s2 into s (used by the multiple-MDX simulation, which
// sums the work of its individual queries).
func (s *Stats) Add(s2 Stats) {
	s.MembersInScope += s2.MembersInScope
	s.MembersMoved += s2.MembersMoved
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
	s.SpillFaults += s2.SpillFaults
	s.FaultMs += s2.FaultMs
	s.PlanMs += s2.PlanMs
	s.ScanMs += s2.ScanMs
	s.ProjectMs += s2.ProjectMs
}
