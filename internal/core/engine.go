package core

import (
	"cmp"
	"fmt"
	"slices"

	"whatifolap/internal/algebra"
	"whatifolap/internal/bitset"
	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/perspective"
	"whatifolap/internal/trace"
)

// ReadOrder selects how the engine orders chunk reads.
type ReadOrder int

const (
	// OrderPebbling uses the paper's pebbling heuristic over the merge
	// dependency graph (§5.2) — the default.
	OrderPebbling ReadOrder = iota
	// OrderVaryingFirst reads chunks sorted with the varying dimension
	// varying fastest — the good sequential order of Lemma 5.1.
	OrderVaryingFirst
	// OrderVaryingLast reads chunks with the varying dimension varying
	// slowest — the bad order of Lemma 5.1, kept for ablations.
	OrderVaryingLast
	// OrderCanonical reads chunks in canonical (schema row-major) ID
	// order.
	OrderCanonical
)

// String names the read order.
func (o ReadOrder) String() string {
	switch o {
	case OrderPebbling:
		return "pebbling"
	case OrderVaryingFirst:
		return "varying-first"
	case OrderVaryingLast:
		return "varying-last"
	case OrderCanonical:
		return "canonical"
	}
	return fmt.Sprintf("ReadOrder(%d)", int(o))
}

// Engine evaluates what-if queries over a chunk-backed cube with one
// varying dimension binding, as a staged pipeline: Plan* builds an
// inspectable PhysicalPlan (target pruning, merge groups, dependency
// graph, read schedule) — under the footprint of the query's grid, which
// the engine compiles first, when there is one — and Exec* plans and
// executes it (assemble → scan → project) on the calling goroutine.
//
// Concurrency: configure an engine (SetReadOrder) before sharing it;
// after that, the Plan*, Exec* and Simulate* methods mutate no engine
// state and are safe for concurrent use on one engine over one store.
// The serving layer relies on this — shared-snapshot queries run
// through a single chunk store, whose read path is safe for concurrent
// readers (see chunk.Store).
// Per-query state (the cancellation context) travels in an
// ExecContext instead of engine fields.
type Engine struct {
	base  *cube.Cube
	store *chunk.Store
	// chain is non-nil when the cube reads through a scenario layer
	// chain (chunk.Chain): the scan resolves each chunk's cells through
	// the chain instead of the raw store, and the assembled view falls
	// back to the chain for out-of-scope rows, so scenario edits are
	// visible to engine-path queries without copying anything.
	chain   *chunk.Chain
	binding *dimension.Binding
	vi, pi  int
	order   ReadOrder
}

// New creates an engine over a cube whose store is a *chunk.Store —
// directly, or through an engine-capable scenario layer chain — and
// whose named varying dimension has a binding.
func New(base *cube.Cube, varyingName string) (*Engine, error) {
	var st *chunk.Store
	var chain *chunk.Chain
	switch s := base.Store().(type) {
	case *chunk.Store:
		st = s
	case *chunk.Chain:
		if !s.EngineCapable() {
			return nil, fmt.Errorf("core: engine requires a uniform chunk-backed layer chain (wider scenario layers evaluate through the general path)")
		}
		chain = s
		st = s.ChunkBase()
	default:
		return nil, fmt.Errorf("core: engine requires a chunk-backed cube, got %T", base.Store())
	}
	b := base.BindingFor(varyingName)
	if b == nil {
		return nil, fmt.Errorf("core: dimension %q has no varying binding", varyingName)
	}
	vi := base.DimIndex(b.Varying.Name())
	pi := base.DimIndex(b.Param.Name())
	if vi < 0 || pi < 0 {
		return nil, fmt.Errorf("core: binding dimensions not in cube schema")
	}
	return &Engine{base: base, store: st, chain: chain, binding: b, vi: vi, pi: pi}, nil
}

// readStore returns the store out-of-scope view reads resolve against:
// the layer chain when the engine runs over a scenario, else the raw
// chunk store.
func (e *Engine) readStore() cube.Store {
	if e.chain != nil {
		return e.chain
	}
	return e.store
}

// assemble wires a result store into the view cube: under dims and
// bindings, or the base cube's own when dims is nil, with the base
// cube's rules. The bindings were validated where they were made — the
// base's when it was loaded or edited, a positive scenario's by
// algebra.PlanSplit — so the view attaches them as they are.
func (e *Engine) assemble(store cube.Store, dims []*dimension.Dimension,
	bindings []*dimension.Binding, mode perspective.Mode) *View {

	if dims == nil {
		dims, bindings = e.base.Dims(), e.base.Bindings()
	}
	return &View{input: e.base, result: e.base.Derive(store, dims, bindings), mode: mode}
}

// newView assembles the view a query answers through, over a viewStore
// whose scope execute wires from the plan.
func (e *Engine) newView(dims []*dimension.Dimension, bindings []*dimension.Binding, mode perspective.Mode) *View {
	vs := &viewStore{base: e.readStore(), vi: e.vi, extent: e.store.Geometry().Extents[e.vi]}
	v := e.assemble(vs, dims, bindings, mode)
	v.engine = e
	return v
}

// sourceChunkIDs returns the chunk IDs the planner must consider: the
// base store's materialized chunks, merged with those only the scenario
// layer chain holds (edited cells may land in chunks the base never
// materialized).
func (e *Engine) sourceChunkIDs() []int {
	ids := e.store.ChunkIDs()
	if e.chain == nil {
		return ids
	}
	return mergeIDs(ids, e.chain.LayerChunkIDs())
}

// mergeIDs merges the ascending IDs of more into the ascending ids, an
// ID in both once: it grows ids by the IDs only more holds and fills it
// from the back, so it needs no set.
func mergeIDs(ids, more []int) []int {
	extra := 0
	for i, j := 0, 0; j < len(more); j++ {
		for i < len(ids) && ids[i] < more[j] {
			i++
		}
		if i == len(ids) || ids[i] != more[j] {
			extra++
		}
	}
	n := len(ids)
	ids = slices.Grow(ids, extra)[:n+extra]
	for i, j, k := n-1, len(more)-1, n+extra-1; j >= 0; k-- {
		if i >= 0 && ids[i] >= more[j] {
			if ids[i] == more[j] {
				j--
			}
			ids[k] = ids[i]
			i--
		} else {
			ids[k] = more[j]
			j--
		}
	}
	return ids
}

// SetReadOrder selects the chunk read-order policy (default pebbling).
// Configuration, not per-query state: set it before sharing the engine.
func (e *Engine) SetReadOrder(o ReadOrder) { e.order = o }

// Binding returns the engine's varying/parameter binding.
func (e *Engine) Binding() *dimension.Binding { return e.binding }

// PerspectiveQuery is a negative-scenario what-if query (paper §3.3):
// report the scoped members under perspectives P with the given
// semantics and non-leaf evaluation mode.
type PerspectiveQuery struct {
	// Members are base names of varying-dimension members in the query
	// scope, as a library caller names them: the engine turns them into
	// Scope's leaf ordinals, and an unknown name is an error.
	Members []string
	// Scope, when non-nil, is the scope as leaf ordinals of the varying
	// dimension, as mdx resolves it from a grid: every member with an
	// instance among them is in scope, and Members is not read. A scope
	// that names no member (an empty Scope, or none and no Members) is
	// every member with more than one instance.
	Scope *bitset.Set
	// Perspectives are parameter-dimension leaf ordinals.
	Perspectives []int
	Sem          perspective.Semantics
	Mode         perspective.Mode
}

// leafCounts returns the leaf count per dimension of a result cube
// whose varying dimension has nVarying leaves.
func (e *Engine) leafCounts(nVarying int) []int {
	leaves := make([]int, e.base.NumDims())
	for i := range leaves {
		leaves[i] = e.base.Dim(i).NumLeaves()
	}
	leaves[e.vi] = nVarying
	return leaves
}

// planPerspective resolves the query scope to base members, copies the
// relocation rows of those Φ moves from the binding's memo for the
// hypothetical (planIndex) — for every source instance ordinal, the
// destination ordinal per parameter leaf (-1 = the cell vanishes, or
// lands off footprint fp) — and plans them under fp (nil: none). Φ's
// fixed points stay out of the table and the scope: their cells are base
// rows, read where they are. When fp holds no varying or no parameter
// leaf, the grid reads no cell of the result's scoped rows and nothing
// is planned. The plan's Stats count the members in scope and those Φ
// moves; PhiCached says whether the memo held the hypothetical.
func (e *Engine) planPerspective(tr *trace.Trace, q PerspectiveQuery, fp Footprint) (*PhysicalPlan, error) {
	x := e.planIndex()
	scope := q.Scope
	if scope != nil && scope.Universe() != len(x.member) {
		return nil, fmt.Errorf("core: scope over %d leaves; dimension %s has %d", scope.Universe(), e.binding.Varying.Name(), len(x.member))
	}
	if scope == nil && len(q.Members) > 0 {
		var err error
		if scope, err = x.scopeOf(e.binding.Varying, q.Members); err != nil {
			return nil, err
		}
	}
	// Φ over no member still checks the perspective set.
	phi, cached, err := x.rows(e.binding, q.Sem, q.Perspectives)
	if err != nil {
		return nil, err
	}
	plan := !fp.empty(e.vi) && !fp.empty(e.pi)
	var moved []int32
	inScope := 0
	if scope == nil || scope.IsEmpty() {
		// The default scope: every member with more than one instance,
		// none of them a fixed point.
		for m := range x.slot {
			if x.instAt[m+1]-x.instAt[m] > 1 {
				inScope++
				if plan {
					moved = append(moved, x.slot[m])
				}
			}
		}
	} else {
		seen := bitset.New(len(x.slot))
		scope.ForEach(func(o int) {
			if m := int(x.member[o]); !seen.Contains(m) {
				seen.Add(m)
				inScope++
				if plan && x.slot[m] >= 0 {
					moved = append(moved, x.slot[m])
				}
			}
		})
	}

	// Every instance of a moved member can be a source; none other can.
	nT := x.nT
	instances := 0
	for _, k := range moved {
		instances += len(x.instances(x.movable[k]))
	}
	target := newRelocTable(e.store.Geometry(), e.vi, nT, instances)
	scoped := make([]bool, len(x.member))
	for _, k := range moved {
		for _, o := range x.instances(x.movable[k]) {
			scoped[o] = true
		}
		src, dst := x.src[int(k)*nT:int(k+1)*nT], phi.dst[int(k)*nT:int(k+1)*nT]
		for t, s := range src {
			if s < 0 || !fp.has(e.pi, t) {
				continue
			}
			row := target.add(int(s))
			if d := int(dst[t]); d >= 0 && fp.has(e.vi, d) {
				row[t] = d
			}
		}
	}
	p, err := e.buildPlan(tr, target, scoped, fp)
	if err != nil {
		return nil, err
	}
	p.Stats.MembersInScope, p.Stats.MembersMoved, p.PhiCached = inScope, len(moved), cached
	return p, nil
}

// PlanPerspective builds the physical plan ExecPerspectiveWith runs for
// a perspective query, without executing it (no chunk I/O) and without
// a footprint: tests and benchmarks inspect the merge groups, read
// schedule and pebbling peak from it.
func (e *Engine) PlanPerspective(q PerspectiveQuery) (*PhysicalPlan, error) {
	return e.planPerspective(nil, q, nil)
}

// PlanPerspectiveProjected plans a perspective query as
// ExecPerspectiveProjected runs it with grid g, reading no chunk: the
// physical plan, under the footprint g's compiled projection reads, and
// how g projects — the cells the accumulator pass computes, those that
// fall back and why, and whether the scan fuses. EXPLAIN prints both.
func (e *Engine) PlanPerspectiveProjected(q PerspectiveQuery, g Grid) (*PhysicalPlan, ProjectStats, error) {
	gp := &gridProjection{grid: g}
	p, err := e.planPerspective(nil, q, gp.compile(e.newView(nil, nil, q.Mode)))
	if err != nil {
		return nil, ProjectStats{}, err
	}
	gp.proj.baseFold(e, p)
	return p, gp.proj.planned(), nil
}

// ExecPerspective plans and runs a perspective query, returning the
// perspective-cube view: ExecPerspectiveWith under the zero ExecContext
// (no cancellation).
func (e *Engine) ExecPerspective(q PerspectiveQuery) (*View, error) {
	return e.ExecPerspectiveWith(ExecContext{}, q)
}

// ExecPerspectiveWith plans and runs a perspective query under an
// explicit per-execution context: cancellation from ec.Ctx. The view is
// planned without a footprint, so it answers every cell.
func (e *Engine) ExecPerspectiveWith(ec ExecContext, q PerspectiveQuery) (*View, error) {
	return e.runPerspective(ec, q, nil)
}

// ExecPerspectiveProjected plans and runs a perspective query and
// projects grid g of its perspective cube into out, indexed [row][col]
// — the cells View.Project computes over ExecPerspectiveWith's view —
// handing out no view. The grid is compiled before planning, so the
// engine relocates only the leaf cells g reads from the result (its
// footprint), and the scan folds them straight into the grid's
// accumulators and builds no overlay, unless a grid cell needs per-cell
// evaluation (ProjectStats.Fused says which). The projection is a
// "project" stage after "scan": a span under ec's current span, and
// Stats.ProjectMs.
func (e *Engine) ExecPerspectiveProjected(ec ExecContext, q PerspectiveQuery, g Grid, out [][]float64) (Stats, ProjectStats, error) {
	gp := &gridProjection{grid: g, out: out}
	view, err := e.runPerspective(ec, q, gp)
	if err != nil {
		return Stats{}, gp.stats, err
	}
	return view.Stats, gp.stats, nil
}

// runPerspective plans and runs a perspective query, projecting its
// view into gp when gp is non-nil.
func (e *Engine) runPerspective(ec ExecContext, q PerspectiveQuery, gp *gridProjection) (*View, error) {
	tr := trace.FromContext(ec.Ctx)
	start := tr.Now()
	view := e.newView(nil, nil, q.Mode)
	fp := gp.compile(view)
	planStart := gp.recordCompile(ec, start)
	plan, err := e.planPerspective(tr, q, fp)
	if err != nil {
		return nil, err
	}
	recordPlanSpan(tr, trace.SpanFromContext(ec.Ctx), planStart, plan, true)
	if err := e.execute(ec, plan, view, gp); err != nil {
		return nil, err
	}
	if q.Sem.Dynamic() {
		if norm, err := perspective.NormalizePerspectives(e.binding.Param, q.Perspectives); err == nil {
			view.Stats.Ranges = len(norm)
		}
	}
	return view, nil
}

// ChangesQuery is a positive-scenario what-if query (paper §3.4): apply
// the hypothetical reclassifications R(m, o, n, t) and report under the
// given mode.
type ChangesQuery struct {
	Changes []algebra.Change
	Mode    perspective.Mode
	// Split, when non-nil, is algebra.PlanSplit(binding, Changes) as the
	// caller already computed it — the MDX layer resolves its axes against
	// the split's dimension before the engine runs; nil has the engine
	// compute it.
	Split *algebra.SplitPlan
}

// splitOf returns the split of q's change relation: q.Split, else
// algebra.PlanSplit's.
func (e *Engine) splitOf(q ChangesQuery) (*algebra.SplitPlan, error) {
	if len(q.Changes) == 0 {
		return nil, fmt.Errorf("core: empty change relation")
	}
	if q.Split != nil {
		return q.Split, nil
	}
	return algebra.PlanSplit(e.binding, q.Changes)
}

// planChanges plans a positive scenario, whose change relation splits
// the varying dimension as split does, under footprint fp (nil: none).
// The split keeps every base ordinal, so a base row is read at its own
// ordinal. Every member a change names is in scope and moves.
func (e *Engine) planChanges(tr *trace.Trace, q ChangesQuery, split *algebra.SplitPlan, fp Footprint) (*PhysicalPlan, error) {
	oldDim := e.binding.Varying
	newDim := split.Dim
	nT := e.binding.Param.NumLeaves()

	// Affected base members: those named by any change, in the order the
	// relation first names them (a plan is a deterministic value, down to
	// the order of its table's rows).
	var affected []string
	seen := map[string]bool{}
	for _, ch := range q.Changes {
		if !seen[ch.Member] {
			seen[ch.Member] = true
			affected = append(affected, ch.Member)
		}
	}
	// Scope: every instance (old and new) of an affected member, in the
	// view's ordinals.
	scoped := make([]bool, newDim.NumLeaves())
	for _, name := range affected {
		for _, inst := range newDim.Instances(name) {
			if o := newDim.Member(inst).LeafOrdinal; o >= 0 {
				scoped[o] = true
			}
		}
	}
	// Relocation table indexed by base ordinals, destinations in the
	// view's: the same ordinals, or a new instance's past the base
	// extent. Affected instances without a redirect entry copy
	// identically (the overlay owns their rows).
	instances := 0
	for _, name := range affected {
		instances += len(oldDim.Instances(name))
	}
	target := newRelocTable(e.store.Geometry(), e.vi, nT, instances)
	for _, name := range affected {
		for _, inst := range oldDim.Instances(name) {
			srcOrd := oldDim.Member(inst).LeafOrdinal
			if srcOrd < 0 {
				continue
			}
			row := target.add(srcOrd)
			redir := split.Redirect[inst]
			for t := 0; t < nT; t++ {
				dstID := inst
				if redir != nil {
					dstID = redir[t]
				}
				if o := newDim.Member(dstID).LeafOrdinal; fp.has(e.pi, t) && fp.has(e.vi, o) {
					row[t] = o
				}
			}
		}
	}
	p, err := e.buildPlan(tr, target, scoped, fp)
	if err != nil {
		return nil, err
	}
	p.Stats.MembersInScope, p.Stats.MembersMoved = len(affected), len(affected)
	return p, nil
}

// changesView assembles a positive scenario's view: the base's
// dimensions with the varying one split extends, whose binding stands in
// for the base's.
func (e *Engine) changesView(split *algebra.SplitPlan, mode perspective.Mode) *View {
	bindings := make([]*dimension.Binding, 0, len(e.base.Bindings()))
	for _, b := range e.base.Bindings() {
		if b == e.binding {
			b = split.Binding
		}
		bindings = append(bindings, b)
	}
	dims := slices.Clone(e.base.Dims())
	dims[e.vi] = split.Dim
	return e.newView(dims, bindings, mode)
}

// PlanChanges builds the physical plan ExecChangesWith runs for a
// positive scenario, without executing it (no chunk I/O) and without a
// footprint.
func (e *Engine) PlanChanges(q ChangesQuery) (*PhysicalPlan, error) {
	split, err := e.splitOf(q)
	if err != nil {
		return nil, err
	}
	return e.planChanges(nil, q, split, nil)
}

// PlanChangesProjected plans a positive scenario as ExecChangesProjected
// runs it with grid g; see PlanPerspectiveProjected.
func (e *Engine) PlanChangesProjected(q ChangesQuery, g Grid) (*PhysicalPlan, ProjectStats, error) {
	split, err := e.splitOf(q)
	if err != nil {
		return nil, ProjectStats{}, err
	}
	gp := &gridProjection{grid: g}
	p, err := e.planChanges(nil, q, split, gp.compile(e.changesView(split, q.Mode)))
	if err != nil {
		return nil, ProjectStats{}, err
	}
	gp.proj.baseFold(e, p)
	return p, gp.proj.planned(), nil
}

// ExecChanges plans and runs a positive-scenario query. The result
// view's varying dimension is extended with the hypothetical instances.
// ExecChangesWith under the zero ExecContext (no cancellation).
func (e *Engine) ExecChanges(q ChangesQuery) (*View, error) {
	return e.ExecChangesWith(ExecContext{}, q)
}

// ExecChangesWith plans and runs a positive-scenario query under an
// explicit per-execution context; like ExecPerspectiveWith's, its view
// answers every cell.
func (e *Engine) ExecChangesWith(ec ExecContext, q ChangesQuery) (*View, error) {
	return e.runChanges(ec, q, nil)
}

// ExecChangesProjected plans and runs a positive-scenario query and
// projects grid g of its result into out, handing out no view; see
// ExecPerspectiveProjected. g names members of the split's dimensions
// (q.Split).
func (e *Engine) ExecChangesProjected(ec ExecContext, q ChangesQuery, g Grid, out [][]float64) (Stats, ProjectStats, error) {
	gp := &gridProjection{grid: g, out: out}
	view, err := e.runChanges(ec, q, gp)
	if err != nil {
		return Stats{}, gp.stats, err
	}
	return view.Stats, gp.stats, nil
}

// runChanges plans and runs a positive-scenario query, projecting its
// view into gp when gp is non-nil.
func (e *Engine) runChanges(ec ExecContext, q ChangesQuery, gp *gridProjection) (*View, error) {
	tr := trace.FromContext(ec.Ctx)
	start := tr.Now()
	split, err := e.splitOf(q)
	if err != nil {
		return nil, err
	}
	view := e.changesView(split, q.Mode)
	fp := gp.compile(view)
	planStart := gp.recordCompile(ec, start)
	plan, err := e.planChanges(tr, q, split, fp)
	if err != nil {
		return nil, err
	}
	recordPlanSpan(tr, trace.SpanFromContext(ec.Ctx), planStart, plan, false)
	if err := e.execute(ec, plan, view, gp); err != nil {
		return nil, err
	}
	return view, nil
}

// readPermutation builds the dimension permutation for sequential read
// orders: the first dimension varies fastest.
func (e *Engine) readPermutation() []int {
	n := e.base.NumDims()
	var perm []int
	switch e.order {
	case OrderVaryingFirst:
		// Varying first, then parameter, then the rest (Lemma 5.1's
		// good order O1).
		perm = append(perm, e.vi)
		if e.pi != e.vi {
			perm = append(perm, e.pi)
		}
		for d := 0; d < n; d++ {
			if d != e.vi && d != e.pi {
				perm = append(perm, d)
			}
		}
	case OrderVaryingLast:
		for d := 0; d < n; d++ {
			if d != e.vi && d != e.pi {
				perm = append(perm, d)
			}
		}
		if e.pi != e.vi {
			perm = append(perm, e.pi)
		}
		perm = append(perm, e.vi)
	default: // OrderCanonical: schema row-major = last dim fastest.
		for d := n - 1; d >= 0; d-- {
			perm = append(perm, d)
		}
	}
	return perm
}

// sortChunksByOrder orders chunk IDs by their Geometry.OrderID under the
// dimension permutation; the keys are unique per chunk.
func sortChunksByOrder(g *chunk.Geometry, ids []int, perm []int) []int {
	type kv struct{ key, id int }
	keyed := make([]kv, len(ids))
	ccoord := make([]int, g.NumDims())
	for i, id := range ids {
		g.CoordOf(id, ccoord)
		keyed[i] = kv{key: g.OrderID(ccoord, perm), id: id}
	}
	slices.SortFunc(keyed, func(a, b kv) int { return cmp.Compare(a.key, b.key) })
	out := make([]int, len(ids))
	for i, k := range keyed {
		out[i] = k.id
	}
	return out
}

// SimulateMultiMDX evaluates a multi-perspective static query the naive
// way the paper uses as its baseline (§6.1, the "Multiple MDX" line):
// one single-perspective static query per perspective, post-processing
// the individual result sets into a single result set. The combined
// statistics sum the per-query work, exposing the repeated planning and
// chunk reads that the direct implementation avoids.
func (e *Engine) SimulateMultiMDX(members []string, perspectives []int, mode perspective.Mode) (*View, error) {
	if len(perspectives) == 0 {
		return nil, fmt.Errorf("core: empty perspective set")
	}
	var combined *View
	var stats Stats
	merged := chunk.NewOverlay(e.store.Geometry())
	for _, p := range perspectives {
		v, err := e.ExecPerspective(PerspectiveQuery{
			Members:      members,
			Perspectives: []int{p},
			Sem:          perspective.Static,
			Mode:         mode,
		})
		if err != nil {
			return nil, err
		}
		stats.Add(v.Stats)
		// Post-process: fold this query's rows into the merged result
		// set. Under static semantics a surviving instance keeps its
		// original values, so overlapping rows agree and overwriting is
		// sound.
		v.result.Store().(*viewStore).overlay.NonNull(func(addr []int, val float64) bool {
			merged.Set(addr, val)
			stats.CellsRelocated++
			return true
		})
		combined = v
	}
	// Reuse the last view's scope (identical across the runs) with the
	// merged overlay.
	last := combined.result.Store().(*viewStore)
	vs := &viewStore{base: last.base, overlay: merged, vi: e.vi, scoped: last.scoped, extent: last.extent}
	view := e.assemble(vs, nil, nil, mode)
	view.engine, view.sourceIDs = e, e.sourceChunkIDs()
	stats.MembersInScope, stats.MembersMoved = combined.Stats.MembersInScope, combined.Stats.MembersMoved
	view.Stats = stats
	return view, nil
}
