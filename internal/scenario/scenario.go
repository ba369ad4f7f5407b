// Package scenario implements scenario workspaces: named, versioned
// chains of overlay deltas pinned to a base cube version, the
// server-side realization of the paper's interactive what-if sessions.
// A scenario accumulates edit batches as sealed chunk.Layer deltas
// (cell writes and tombstones) plus dimension-edit deltas (hypothetical
// new members, validity-window reassignments) over an immutable base
// cube snapshot. Queries evaluate against a layered view — base chunks
// resolved through the layer chain, newest layer wins, never copying
// the base — forks share the parent's sealed layers in O(layers), and
// a diff walks exactly the cells the two scenarios' layers touch.
//
// Concurrency: a Scenario's mutable state (layers, dims, revision) is
// guarded by its mutex; every edit batch produces a fresh layer and a
// fresh layer slice, so snapshots handed to queries are immutable and
// never race with later edits. Structural edits extend the dimension
// set (dimension.Extend) before mutating it, so views and forks holding
// the previous dimensions stay valid.
package scenario

import (
	"fmt"
	"sync"

	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
)

// Edit op names. An edit batch (one Apply call) may mix ops;
// structural ops (new_member, validity) apply before cell ops (set,
// delete) so a batch can introduce a member and write under it.
const (
	OpSet       = "set"
	OpDelete    = "delete"
	OpNewMember = "new_member"
	OpValidity  = "validity"
)

// Edit is one scenario edit. The zero fields irrelevant to an op are
// ignored.
type Edit struct {
	// Op selects the edit kind: set, delete, new_member, validity.
	Op string `json:"op"`

	// Cell addresses a leaf cell for set/delete: dimension name →
	// member reference (path or unambiguous name). Omitted dimensions
	// default to leaf ordinal 0.
	Cell map[string]string `json:"cell,omitempty"`
	// Value is the cell value for set.
	Value float64 `json:"value,omitempty"`

	// Dim names the dimension for new_member and validity.
	Dim string `json:"dim,omitempty"`
	// Parent is the parent path for new_member ("" = dimension root).
	Parent string `json:"parent,omitempty"`
	// Name is the new member's simple name for new_member.
	Name string `json:"name,omitempty"`

	// Member references the leaf instance for validity.
	Member string `json:"member,omitempty"`
	// From/To reference parameter-dimension leaves bounding the
	// validity window (inclusive) for validity.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
}

// Info is a scenario's JSON-facing summary.
type Info struct {
	ID               string `json:"id"`
	Name             string `json:"name"`
	Cube             string `json:"cube"`
	BaseVersion      int64  `json:"base_version"`
	Parent           string `json:"parent,omitempty"`
	Revision         int64  `json:"revision"`
	Layers           int    `json:"layers"`
	CellsOverridden  int    `json:"cells_overridden"`
	NewMembers       int    `json:"new_members"`
	CommittedVersion int64  `json:"committed_version,omitempty"`
}

// Scenario is one workspace: an immutable base cube snapshot under an
// append-only chain of sealed delta layers, plus (once structurally
// edited) a private dimension set.
type Scenario struct {
	id          string
	cubeName    string
	baseVersion int64
	base        *cube.Cube

	mu       sync.Mutex
	name     string
	parentID string
	revision int64
	// layers are sealed: Apply builds a brand-new slice per batch
	// (never appending into a backing array a fork might share), and a
	// layer is never mutated once it is in the slice.
	layers []*chunk.Layer
	// dims/bindings are nil while the scenario shares the base cube's
	// dimensions; the first structural edit clones them (and every
	// later structural edit clones again, since a fork may share the
	// current set).
	dims     []*dimension.Dimension
	bindings []*dimension.Binding
	// geom is the current layer geometry: the base chunking, widened
	// along dimensions that gained hypothetical members.
	geom             *chunk.Geometry
	newMembers       int
	committedVersion int64
}

// newScenario builds a workspace over the base snapshot.
func newScenario(id, name, cubeName string, baseVersion int64, base *cube.Cube) (*Scenario, error) {
	s := &Scenario{id: id, name: name, cubeName: cubeName, baseVersion: baseVersion, base: base}
	if err := s.recomputeGeometry(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewLocal creates a standalone scenario over a cube, outside any
// manager or catalog — the whatif CLI uses it to apply an edit script
// before querying. The id is the name; the base version is 0.
func NewLocal(name string, base *cube.Cube) (*Scenario, error) {
	return newScenario(name, name, "", 0, base)
}

// ID returns the scenario's identifier.
func (s *Scenario) ID() string { return s.id }

// CubeName returns the catalog cube the scenario is pinned to.
func (s *Scenario) CubeName() string { return s.cubeName }

// BaseVersion returns the pinned catalog cube version.
func (s *Scenario) BaseVersion() int64 { return s.baseVersion }

// Revision returns the edit revision (one bump per applied batch).
func (s *Scenario) Revision() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.revision
}

// Info returns the scenario's summary.
func (s *Scenario) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	cells := 0
	for _, l := range s.layers {
		cells += l.Cells()
	}
	return Info{
		ID: s.id, Name: s.name, Cube: s.cubeName,
		BaseVersion: s.baseVersion, Parent: s.parentID,
		Revision: s.revision, Layers: len(s.layers),
		CellsOverridden: cells, NewMembers: s.newMembers,
		CommittedVersion: s.committedVersion,
	}
}

// MarkCommitted records the catalog version a commit published.
func (s *Scenario) MarkCommitted(v int64) {
	s.mu.Lock()
	s.committedVersion = v
	s.mu.Unlock()
}

// curDims returns the scenario's dimensions (base's when unedited).
// Caller holds s.mu.
func (s *Scenario) curDims() []*dimension.Dimension {
	if s.dims != nil {
		return s.dims
	}
	return s.base.Dims()
}

// curBindings returns the scenario's bindings (base's when unedited).
// Caller holds s.mu.
func (s *Scenario) curBindings() []*dimension.Binding {
	if s.bindings != nil {
		return s.bindings
	}
	return s.base.Bindings()
}

// recomputeGeometry rebuilds the layer geometry from the current
// dimension extents over the base chunking. Caller holds s.mu (or has
// exclusive access during construction).
func (s *Scenario) recomputeGeometry() error {
	dims := s.curDims()
	ext := make([]int, len(dims))
	for i, d := range dims {
		ext[i] = d.NumLeaves()
	}
	var cd []int
	if st, ok := s.base.Store().(*chunk.Store); ok {
		cd = st.Geometry().ChunkDims
	} else {
		cd = ext
	}
	g, err := chunk.NewGeometry(ext, cd)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.id, err)
	}
	s.geom = g
	return nil
}

// privatize extends the current dimension set (dimension.Extend) and
// rebases the bindings onto the extensions, making structural edits
// invisible to the base cube and to forks sharing the previous set.
// Caller holds s.mu.
func (s *Scenario) privatize() error {
	cur, curB := s.curDims(), s.curBindings()
	idx := make(map[*dimension.Dimension]int, len(cur))
	exts := make([]*dimension.Dimension, len(cur))
	for i, d := range cur {
		exts[i] = d.Extend()
		idx[d] = i
	}
	nb := make([]*dimension.Binding, len(curB))
	for i, b := range curB {
		vi, okV := idx[b.Varying]
		pi, okP := idx[b.Param]
		if !okV || !okP {
			return fmt.Errorf("scenario %s: binding %s/%s references dimensions outside the schema", s.id, b.Varying.Name(), b.Param.Name())
		}
		nb[i] = b.Clone(exts[vi], exts[pi])
	}
	s.dims, s.bindings = exts, nb
	return nil
}

// dimIndex finds the schema position of a dimension by name. Caller
// holds s.mu.
func (s *Scenario) dimIndex(name string) (int, error) {
	for i, d := range s.curDims() {
		if d.Name() == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("scenario %s: no dimension %q", s.id, name)
}

// resolveCell turns a dim-name→member-ref map into a leaf address
// under the current dimensions. Omitted dimensions default to leaf
// ordinal 0. Caller holds s.mu.
func (s *Scenario) resolveCell(cell map[string]string) ([]int, error) {
	dims := s.curDims()
	byName := make(map[string]int, len(dims))
	addr := make([]int, len(dims))
	for i, d := range dims {
		byName[d.Name()] = i
	}
	for name, ref := range cell {
		i, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("scenario %s: no dimension %q in cell address", s.id, name)
		}
		id, err := dims[i].Lookup(ref)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.id, err)
		}
		m := dims[i].Member(id)
		if m.LeafOrdinal < 0 {
			return nil, fmt.Errorf("scenario %s: cell edits address leaf members, but %q is not a leaf of %q", s.id, ref, name)
		}
		addr[i] = m.LeafOrdinal
	}
	return addr, nil
}

// Apply applies one edit batch and returns the new revision.
// Structural ops (new_member, validity) apply first, in order; cell
// ops (set, delete) then build one new sealed layer under the
// (possibly widened) geometry. The batch is atomic: on error the
// scenario is unchanged.
func (s *Scenario) Apply(edits []Edit) (int64, error) {
	if len(edits) == 0 {
		return 0, fmt.Errorf("scenario %s: empty edit batch", s.id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Stage on copies; commit at the end.
	savedDims, savedBindings, savedGeom, savedNew := s.dims, s.bindings, s.geom, s.newMembers
	restore := func() {
		s.dims, s.bindings, s.geom, s.newMembers = savedDims, savedBindings, savedGeom, savedNew
	}

	structural := false
	for _, e := range edits {
		switch e.Op {
		case OpNewMember, OpValidity:
			structural = true
		case OpSet, OpDelete:
		default:
			return 0, fmt.Errorf("scenario %s: unknown edit op %q", s.id, e.Op)
		}
	}
	if structural {
		if err := s.privatize(); err != nil {
			restore()
			return 0, err
		}
		newMembers := 0
		for _, e := range edits {
			switch e.Op {
			case OpNewMember:
				di, err := s.dimIndex(e.Dim)
				if err != nil {
					restore()
					return 0, err
				}
				// A binding's validity sets span its parameter dimension's
				// leaves; a new leaf there would leave them on the old
				// universe.
				for _, b := range s.bindings {
					if b.Param == s.dims[di] {
						restore()
						return 0, fmt.Errorf("scenario %s: cannot add a member to %q: it is the parameter dimension of %q", s.id, e.Dim, b.Varying.Name())
					}
				}
				if _, err := s.dims[di].AddHypothetical(e.Parent, e.Name); err != nil {
					restore()
					return 0, fmt.Errorf("scenario %s: %w", s.id, err)
				}
				newMembers++
			case OpValidity:
				if err := s.applyValidity(e); err != nil {
					restore()
					return 0, err
				}
			}
		}
		// The batch's validity sets are checked once, as the batch left
		// them: a window may take several edits to split (a new instance
		// is valid everywhere until a validity edit gives it a window),
		// and a new instance of an existing varying member that no edit
		// windowed overlaps its siblings. Views and commits attach these
		// bindings without re-validating them.
		for _, b := range s.bindings {
			if err := b.Validate(); err != nil {
				restore()
				return 0, fmt.Errorf("scenario %s: %w", s.id, err)
			}
		}
		if err := s.recomputeGeometry(); err != nil {
			restore()
			return 0, err
		}
		s.newMembers += newMembers
	}

	layer := chunk.NewLayer(s.geom)
	for _, e := range edits {
		switch e.Op {
		case OpSet, OpDelete:
			addr, err := s.resolveCell(e.Cell)
			if err != nil {
				layer.Seal()
				restore()
				return 0, err
			}
			if e.Op == OpSet {
				layer.Set(addr, e.Value)
			} else {
				layer.Delete(addr)
			}
		}
	}
	// Seal before publishing: a chain snapshot must never observe a
	// mutable layer (releasepair pairs NewLayer with Seal).
	layer.Seal()
	if layer.Cells() > 0 {
		// A brand-new slice per batch: forks share the old backing
		// array, so appending in place could clobber a sibling's
		// append at the same index.
		s.layers = append(append([]*chunk.Layer(nil), s.layers...), layer)
	}
	s.revision++
	return s.revision, nil
}

// applyValidity reassigns a validity window: the instance named by
// e.Member claims parameter leaves [e.From, e.To] from its sibling
// instances. Apply validates the bindings once the whole batch has
// applied. Caller holds s.mu; dims are already private.
func (s *Scenario) applyValidity(e Edit) error {
	di, err := s.dimIndex(e.Dim)
	if err != nil {
		return err
	}
	d := s.dims[di]
	var b *dimension.Binding
	for _, cand := range s.bindings {
		if cand.Varying == d {
			b = cand
			break
		}
	}
	if b == nil {
		return fmt.Errorf("scenario %s: dimension %q has no varying binding for validity edits", s.id, e.Dim)
	}
	inst, err := d.Lookup(e.Member)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.id, err)
	}
	lo, err := paramOrdinal(b.Param, e.From)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.id, err)
	}
	hi, err := paramOrdinal(b.Param, e.To)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.id, err)
	}
	if err := b.SetWindow(inst, lo, hi); err != nil {
		return fmt.Errorf("scenario %s: %w", s.id, err)
	}
	return nil
}

// paramOrdinal resolves a parameter-dimension leaf reference to its
// ordinal.
func paramOrdinal(param *dimension.Dimension, ref string) (int, error) {
	id, err := param.Lookup(ref)
	if err != nil {
		return 0, err
	}
	m := param.Member(id)
	if m.LeafOrdinal < 0 {
		return 0, fmt.Errorf("dimension %s: %q is not a leaf", param.Name(), ref)
	}
	return m.LeafOrdinal, nil
}

// snapshot captures the scenario's current immutable read state.
func (s *Scenario) snapshot() (layers []*chunk.Layer, dims []*dimension.Dimension, bindings []*dimension.Binding, rev int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.layers, s.curDims(), s.curBindings(), s.revision
}

// View assembles the scenario's layered view cube: the base store
// under the layer chain, exposed with the scenario's dimensions and
// bindings, sharing the base's rules and derived (non-leaf) cells.
// Nothing is copied; the view is an immutable snapshot safe to query
// concurrently with later edits. The returned revision identifies the
// snapshot for cache keying.
func (s *Scenario) View() (*cube.Cube, int64, error) {
	layers, dims, bindings, rev := s.snapshot()
	// The bindings are the base's, validated when it was loaded, or the
	// scenario's own, validated by the structural batch that made them.
	view := s.base.Derive(chunk.NewChain(s.base.Store(), layers), dims, bindings)
	s.base.DerivedCells(func(ids []dimension.MemberID, v float64) bool {
		view.SetValue(ids, v)
		return true
	})
	return view, rev, nil
}

// Materialize flattens the scenario into a standalone chunk-backed
// cube at the current (possibly widened) geometry — the commit path:
// base cells resolved through the layer chain, scenario dimensions,
// rebased bindings, shared rules, and the base's derived cells.
func (s *Scenario) Materialize() (*cube.Cube, error) {
	layers, dims, bindings, _ := s.snapshot()
	geom := func() *chunk.Geometry { s.mu.Lock(); defer s.mu.Unlock(); return s.geom }()
	st := chunk.NewChain(s.base.Store(), layers).Flatten(geom)
	out := cube.NewWithStore(st, dims...)
	for _, b := range bindings {
		if err := out.AddBinding(b); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.id, err)
		}
	}
	out.SetRules(s.base.Rules())
	s.base.DerivedCells(func(ids []dimension.MemberID, v float64) bool {
		out.SetValue(ids, v)
		return true
	})
	return out, nil
}
