package mdx

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"whatifolap/internal/algebra"
	"whatifolap/internal/bitset"
	"whatifolap/internal/chunk"
	"whatifolap/internal/core"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/perspective"
	"whatifolap/internal/result"
	"whatifolap/internal/trace"
)

// Coord pins one dimension of a cell to a member.
type Coord = core.Coord

// Tuple is an ordered list of coordinates from distinct dimensions.
type Tuple = core.Tuple

// RunContext carries per-query execution parameters through the
// evaluator into the engine — it is the engine's ExecContext:
// cancellation (checked at chunk-iteration boundaries and between grid
// rows during projection). The zero value runs without cancellation.
type RunContext = core.ExecContext

// Evaluator runs extended-MDX queries against a cube. Cubes backed by
// chunked storage get the perspective-cube engine for what-if clauses;
// other cubes fall back to the algebra operators.
//
// Concurrency: an evaluator holds no per-query state, so one evaluator
// is safe for concurrent use — per-query parameters travel in the
// RunContext each run is handed.
type Evaluator struct {
	cube *cube.Cube
}

// NewEvaluator creates an evaluator bound to a cube — a catalog cube or
// a scenario's layered view, which picks its execution path exactly
// like a base cube (see lower).
func NewEvaluator(c *cube.Cube) *Evaluator { return &Evaluator{cube: c} }

// engineCube reports whether the cube can back the perspective-cube
// engine: chunked storage, directly or through an engine-capable
// scenario layer chain, whose geometry spans the cube's dimensions. A
// scenario that added members evaluates through the algebra path: its
// dimensions are wider than the base chunks even before a layer holds a
// cell under a new member.
func engineCube(c *cube.Cube) bool {
	var st *chunk.Store
	switch s := c.Store().(type) {
	case *chunk.Store:
		st = s
	case *chunk.Chain:
		if !s.EngineCapable() {
			return false
		}
		st = s.ChunkBase()
	default:
		return false
	}
	return slices.EqualFunc(c.Dims(), st.Geometry().Extents,
		func(d *dimension.Dimension, leaves int) bool { return d.NumLeaves() == leaves })
}

// Run parses and evaluates a query in one call, serially and without
// cancellation.
func (ev *Evaluator) Run(src string) (*result.Grid, error) {
	return ev.RunWith(RunContext{}, src)
}

// RunWith parses and evaluates a query under an explicit RunContext.
// When rc.Ctx carries a trace, parsing is recorded as a "parse" span.
func (ev *Evaluator) RunWith(rc RunContext, src string) (*result.Grid, error) {
	tr := trace.FromContext(rc.Ctx)
	parseStart := tr.Now()
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	tr.Record(trace.SpanFromContext(rc.Ctx), "parse", parseStart, tr.Now())
	return ev.RunQueryWith(rc, q)
}

// RunQueryWith evaluates a parsed query under an explicit RunContext.
func (ev *Evaluator) RunQueryWith(rc RunContext, q *Query) (*result.Grid, error) {
	g, _, err := ev.RunQueryStatsWith(rc, q)
	return g, err
}

// RunQueryStatsWith is the one way a query executes: lower it, run the
// lowered form (engine or algebra), project the axes. It returns engine
// statistics when the engine path executed (zero otherwise), including
// the per-stage wall times; the projection stage is timed too. Under a
// trace, lowering — member resolution, a WITH CHANGES clause's split —
// is a "lower" span; when it succeeds, its path attribute is the
// queryPath it chose (0 algebra, 1 perspective engine, 2 changes
// engine). A WITH CHANGES clause's split is a "split" span under it.
func (ev *Evaluator) RunQueryStatsWith(rc RunContext, q *Query) (*result.Grid, core.Stats, error) {
	g, stats, _, err := ev.RunQueryProjectedWith(rc, q)
	return g, stats, err
}

// RunQueryProjectedWith is RunQueryStatsWith that also reports how an
// engine path projected the grid — folded into the scan, or over an
// overlay and why — which RenderAnalyze prints; nil on the algebra
// path. The engine paths hand the engine the grid the lowering
// resolved and receive its cells (ExecPerspectiveProjected), with the
// "project" span its own; the algebra path projects its result cube
// cell by cell under a "project" span here.
func (ev *Evaluator) RunQueryProjectedWith(rc RunContext, q *Query) (*result.Grid, core.Stats, *core.ProjectStats, error) {
	tr := trace.FromContext(rc.Ctx)
	lowerSp := tr.Start(trace.SpanFromContext(rc.Ctx), "lower")
	lo, err := ev.lower(q, tr, lowerSp)
	if err != nil {
		lowerSp.End()
		return nil, core.Stats{}, nil, err
	}
	lowerSp.Int("path", int64(lo.path))
	lowerSp.End()
	if lo.path != pathAlgebra {
		g := ev.newGrid(lo.schema, lo.grid, q)
		stats, ps, err := ev.execute(rc, lo, g.Values)
		if err != nil {
			return nil, core.Stats{}, nil, err
		}
		lo.grid.trim(g)
		return g, stats, &ps, nil
	}
	if err := rc.Err(); err != nil {
		return nil, core.Stats{}, nil, err
	}
	plan, _ := ev.optimize(lo.plan)
	out, err := algebra.Execute(plan, ev.cube)
	if err != nil {
		return nil, core.Stats{}, nil, err
	}
	projSp := tr.Start(trace.SpanFromContext(rc.Ctx), "project")
	projStart := time.Now()
	prc := rc
	prc.Ctx = trace.WithSpan(rc.Ctx, projSp)
	g, err := ev.project(prc, q, out, lo.mode)
	projSp.End()
	if err != nil {
		return nil, core.Stats{}, nil, err
	}
	return g, core.Stats{ProjectMs: float64(time.Since(projStart)) / float64(time.Millisecond)}, nil, nil
}

// ExplainAnalyze executes the query under a fresh span trace and
// renders it with RenderAnalyze. The grid is returned too so callers
// can show results alongside the analysis. This backs the EXPLAIN
// ANALYZE query prefix for callers that hold no trace of their own.
func (ev *Evaluator) ExplainAnalyze(rc RunContext, q *Query) (string, *result.Grid, core.Stats, error) {
	tr := trace.New(0)
	root := tr.Start(trace.SpanRef{}, "eval")
	rc.Ctx = trace.WithSpan(trace.NewContext(rc.Context(), tr), root)
	g, stats, ps, err := ev.RunQueryProjectedWith(rc, q)
	root.End()
	if err != nil {
		return "", nil, stats, err
	}
	return RenderAnalyze(tr, stats, ps), g, stats, nil
}

// RenderAnalyze renders a finished query's span tree followed by
// per-stage totals, which reconcile with stats (the trace and the stats
// time the same stage boundaries, so they agree to clock resolution),
// and, for a perspective plan, whether it copied Φ's relocation rows
// from the binding's memo ("plan: cached", the plan span's phi_cached
// of 1) or evaluated Φ ("plan: computed", phi_cached 0) — a changes plan
// evaluates no Φ and prints neither — and how it projected the grid (ps,
// from RunQueryProjectedWith; nil prints no such line).
// It is the text half of EXPLAIN ANALYZE, for callers that ran the
// query under a trace they already hold (the daemon's pooled one).
func RenderAnalyze(tr *trace.Trace, stats core.Stats, ps *core.ProjectStats) string {
	var b strings.Builder
	b.WriteString(tr.Render())
	fmt.Fprintf(&b, "totals: plan=%.3fms scan=%.3fms project=%.3fms\n",
		tr.StageMs("plan"), tr.StageMs("scan"), tr.StageMs("project"))
	fmt.Fprintf(&b, "stats:  chunks_read=%d cells_relocated=%d merge_groups=%d",
		stats.ChunksRead, stats.CellsRelocated, stats.MergeGroups)
	if stats.SpillFaults > 0 {
		fmt.Fprintf(&b, " spill_faults=%d fault_ms=%.3f", stats.SpillFaults, stats.FaultMs)
	}
	b.WriteByte('\n')
	for _, sp := range tr.Spans() {
		if cached, phi := sp.Attr("phi_cached"); sp.Name == "plan" && phi {
			if cached != 0 {
				b.WriteString("plan: cached\n")
			} else {
				b.WriteString("plan: computed\n")
			}
			break
		}
	}
	if ps != nil {
		fmt.Fprintf(&b, "project: %s\n", describeProjection(*ps))
	}
	return b.String()
}

// Explain describes how the evaluator would execute the query: which
// path (engine or algebra), the lowered operator plan, and the
// rewrites the optimizer applies. For engine paths the physical plan is
// printed under the logical summary — merge groups, the chunk read
// schedule, and the peak resident chunk count. Planning runs (it is
// pure), but no chunks are read and nothing is executed.
func (ev *Evaluator) Explain(q *Query) (string, error) {
	lo, err := ev.lower(q, nil, trace.SpanRef{})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	var plan *core.PhysicalPlan
	var ps core.ProjectStats
	switch lo.path {
	case pathEngineChanges:
		fmt.Fprintf(&b, "path: perspective-cube engine (positive scenario, %d change rows)\n", len(q.Changes.Rows))
		plan, ps, err = lo.engine.PlanChangesProjected(lo.changes, lo.grid.core())
	case pathEnginePerspective:
		pc := q.Perspectives[0]
		fmt.Fprintf(&b, "path: perspective-cube engine (%v on %s, %d perspectives, %v)\n",
			pc.Sem, pc.Varying, len(pc.Points), pc.Mode)
		plan, ps, err = lo.engine.PlanPerspectiveProjected(lo.persp, lo.grid.core())
	case pathAlgebra:
		fmt.Fprintf(&b, "path: algebra\nplan:      %s\n", lo.plan)
		opt, rewrites := ev.optimize(lo.plan)
		if len(rewrites) == 0 {
			b.WriteString("optimizer: no rewrites apply\n")
		} else {
			fmt.Fprintf(&b, "optimized: %s\n", opt)
			for _, rw := range rewrites {
				fmt.Fprintf(&b, "  %-24s %s\n", rw.Rule+":", rw.Detail)
			}
		}
		return b.String(), nil
	}
	if err != nil {
		return "", err
	}
	b.WriteString(describeFootprint(lo.schema, plan))
	fmt.Fprintf(&b, "project: %s\n", describeProjection(ps))
	b.WriteString(plan.Describe())
	return b.String(), nil
}

// describeProjection renders how an engine query's grid is projected,
// the text after "project: " on EXPLAIN's projection line: "fused" when
// the scan folds the scoped cells straight into the grid's accumulators;
// otherwise some cells fall back to per-cell evaluation, so the scan
// builds an overlay, and the line names why: "compiled (overlay: why;
// k of n cells per-cell)", or "per-cell (why; k of n cells)" when no
// cell compiles.
func describeProjection(ps core.ProjectStats) string {
	switch total := ps.Compiled + ps.Fallback; {
	case ps.Fused:
		return "fused"
	case ps.Fallback == total:
		return fmt.Sprintf("per-cell (%s; %d of %d cells)", ps.Reason, ps.Fallback, total)
	}
	return fmt.Sprintf("compiled (overlay: %s; %d of %d cells per-cell)", ps.Reason, ps.Fallback, ps.Compiled+ps.Fallback)
}

// describeFootprint renders the footprint line of an engine plan: per
// dimension of the result schema, how many of its leaves the grid can
// read, and what that left of the cube's chunks — those the scan reads
// to relocate, and those it reads for base and input cells alone.
func describeFootprint(schema *cube.Cube, plan *core.PhysicalPlan) string {
	var parts []string
	restricted := false
	for d, set := range plan.Footprint {
		dim := schema.Dim(d)
		if set == nil {
			parts = append(parts, dim.Name()+" all (rules)")
			continue
		}
		restricted = true
		parts = append(parts, fmt.Sprintf("%s %d/%d", dim.Name(), set.Len(), dim.NumLeaves()))
	}
	if !restricted {
		return "footprint: none (formula rules reach every dimension)\n"
	}
	return fmt.Sprintf("footprint: %s; %d relocated and %d base-only of %d source chunks on the grid\n",
		strings.Join(parts, ", "), plan.Stats.RelevantChunks, len(plan.BaseChunks), plan.SourceChunks)
}

// queryPath names the three ways a lowered query executes.
type queryPath int

const (
	// pathAlgebra lowers to an algebra plan, optimized (paper §8's
	// operator-manipulation direction) before execution.
	pathAlgebra queryPath = iota
	// pathEnginePerspective runs a single WITH PERSPECTIVE clause on the
	// perspective-cube engine.
	pathEnginePerspective
	// pathEngineChanges runs a lone WITH CHANGES clause on the engine.
	pathEngineChanges
)

// lowered is everything decided about a query before anything runs:
// the path, the resolved clause in the form that path consumes, and the
// evaluation mode for non-leaf cells. Explain prints it and
// RunQueryStatsWith executes it, so the two cannot disagree.
type lowered struct {
	path queryPath
	mode perspective.Mode
	// engine serves the two engine paths; persp or changes is its query
	// (scope leaves, perspective points / change rows resolved). The
	// engine derives the footprint from the grid it compiles.
	engine  *core.Engine
	persp   core.PerspectiveQuery
	changes core.ChangesQuery
	// schema and grid, on the engine paths, are the result cube's schema
	// — known before anything runs: the input's, with the varying
	// dimension a WITH CHANGES clause splits — and the axes and slicer
	// resolved against it, once, for the scope and the projection. The
	// algebra path learns its schema by executing, and resolves its grid
	// when it projects.
	schema *cube.Cube
	grid   *grid
	// plan is the unoptimized operator plan of the algebra path.
	plan algebra.Plan
}

// lower decides how the query executes. Cubes on engine-capable chunked
// storage with a single what-if clause (one WITH PERSPECTIVE, or WITH
// CHANGES alone) get the perspective-cube engine; everything else —
// plain queries, transfers, clause combinations, map-backed cubes and
// scenario views with new members — lowers to an algebra plan. Under a
// trace tr, the split of a WITH CHANGES clause is a span under parent.
func (ev *Evaluator) lower(q *Query, tr *trace.Trace, parent trace.SpanRef) (lowered, error) {
	lo := lowered{mode: perspective.NonVisual}
	single := engineCube(ev.cube) && len(q.Transfers) == 0
	switch {
	case single && q.Changes != nil && len(q.Perspectives) == 0:
		changes, varying, err := ev.resolveChanges(q.Changes)
		if err != nil {
			return lo, err
		}
		lo.path, lo.mode = pathEngineChanges, q.Changes.Mode
		if lo.engine, err = core.New(ev.cube, varying); err != nil {
			return lo, err
		}
		// The split is metadata only: it yields the result schema, with
		// the hypothetical instances the axes may name, before any chunk is
		// read; the engine plans from the same split.
		splitSp := tr.Start(parent, "split")
		base := lo.engine.Binding().Varying
		split, err := algebra.PlanSplit(lo.engine.Binding(), changes)
		if err != nil {
			splitSp.End()
			return lo, err
		}
		splitSp.Int("changes", int64(len(changes)))
		splitSp.Int("new_instances", int64(split.Dim.NumLeaves()-base.NumLeaves()))
		splitSp.End()
		dims := slices.Clone(ev.cube.Dims())
		dims[ev.cube.DimIndex(varying)] = split.Dim
		lo.schema = cube.New(dims...)
		lo.schema.SetRules(ev.cube.Rules())
		if lo.grid, err = ev.resolveGrid(lo.schema, q); err != nil {
			return lo, err
		}
		lo.changes = core.ChangesQuery{Changes: changes, Mode: lo.mode, Split: split}
		return lo, nil
	case single && q.Changes == nil && len(q.Perspectives) == 1:
		pc := q.Perspectives[0]
		b := ev.cube.BindingFor(pc.Varying)
		if b == nil {
			return lo, fmt.Errorf("mdx: dimension %q has no varying binding", pc.Varying)
		}
		points, err := ev.resolvePerspectivePoints(b, pc.Points)
		if err != nil {
			return lo, err
		}
		lo.path, lo.mode, lo.schema = pathEnginePerspective, pc.Mode, ev.cube
		if lo.grid, err = ev.resolveGrid(lo.schema, q); err != nil {
			return lo, err
		}
		lo.persp = core.PerspectiveQuery{Scope: lo.grid.scopeLeaves(b.Varying, ev.cube.DimIndex(pc.Varying)),
			Perspectives: points, Sem: pc.Sem, Mode: pc.Mode}
		lo.engine, err = core.New(ev.cube, pc.Varying)
		return lo, err
	}
	var err error
	lo.plan, lo.mode, err = ev.lowerToPlan(q)
	return lo, err
}

// execute runs an engine-path lowering and projects the grid the
// lowering resolved into values, indexed [row][col]: the engine folds
// the relocated cells into the grid during its scan and hands out no
// view.
func (ev *Evaluator) execute(rc RunContext, lo lowered, values [][]float64) (core.Stats, core.ProjectStats, error) {
	if lo.path == pathEngineChanges {
		return lo.engine.ExecChangesProjected(rc, lo.changes, lo.grid.core(), values)
	}
	return lo.engine.ExecPerspectiveProjected(rc, lo.persp, lo.grid.core(), values)
}

// optimize applies the algebra rewrites to a lowered plan, returning
// the rewritten plan and what fired.
func (ev *Evaluator) optimize(plan algebra.Plan) (algebra.Plan, []algebra.Rewrite) {
	opt, rewrites := algebra.Optimize(plan)
	opt, more := algebra.EliminateFullCover(opt, ev.cube)
	return opt, append(rewrites, more...)
}

// lowerToPlan translates the query's what-if clauses into an algebra
// plan (changes innermost, then perspectives — the structure must exist
// before perspectives are taken over it), returning the evaluation mode
// of the outermost clause.
func (ev *Evaluator) lowerToPlan(q *Query) (algebra.Plan, perspective.Mode, error) {
	var plan algebra.Plan = algebra.PlanInput{}
	mode := perspective.NonVisual
	for _, tc := range q.Transfers {
		tr, err := ev.resolveTransfer(tc)
		if err != nil {
			return nil, mode, err
		}
		plan = &algebra.PlanTransfer{Transfer: tr, Child: plan}
	}
	if q.Changes != nil {
		changes, varying, err := ev.resolveChanges(q.Changes)
		if err != nil {
			return nil, mode, err
		}
		plan = &algebra.PlanChanges{Varying: varying, Changes: changes, Child: plan}
		mode = q.Changes.Mode
	}
	for _, pc := range q.Perspectives {
		b := ev.cube.BindingFor(pc.Varying)
		if b == nil {
			return nil, mode, fmt.Errorf("mdx: dimension %q has no varying binding", pc.Varying)
		}
		points, err := ev.resolvePerspectivePoints(b, pc.Points)
		if err != nil {
			return nil, mode, err
		}
		plan = &algebra.PlanPerspective{Varying: pc.Varying, Sem: pc.Sem, Points: points, Child: plan}
		mode = pc.Mode
	}
	return plan, mode, nil
}

// resolvePerspectivePoints maps perspective member references to leaf
// ordinals of the binding's parameter dimension.
func (ev *Evaluator) resolvePerspectivePoints(b *dimension.Binding, points []*MemberExpr) ([]int, error) {
	out := make([]int, 0, len(points))
	for _, pt := range points {
		id, err := resolveParam(b.Param, pt)
		if err != nil {
			return nil, fmt.Errorf("mdx: perspective point: %w", err)
		}
		m := b.Param.Member(id)
		if m.LeafOrdinal < 0 {
			return nil, fmt.Errorf("mdx: perspective point %q is not a leaf of %s", pt.Parts[len(pt.Parts)-1], b.Param.Name())
		}
		out = append(out, m.LeafOrdinal)
	}
	return out, nil
}

// scopeLeaves returns the leaf ordinals of the varying dimension d
// (index vi) at or below the members the grid names there: the scope
// that bounds the engine's work (paper §6.3), each member with an
// instance among them. A grid that names none yields an empty set,
// which defers to the engine's default scope.
func (gr *grid) scopeLeaves(d *dimension.Dimension, vi int) *bitset.Set {
	scope := bitset.New(d.NumLeaves())
	for _, tuples := range [][]Tuple{gr.cols, gr.rows, {gr.slicer}} {
		for _, tp := range tuples {
			for _, co := range tp {
				if co.Dim == vi {
					d.LeafRanges(co.Member, scope.AddRange)
				}
			}
		}
	}
	return scope
}

// resolveTransfer maps a TRANSFER clause onto the algebra operator:
// the dimension is inferred from the FROM member, and each scope member
// contributes a descendant condition on its own dimension.
func (ev *Evaluator) resolveTransfer(tc *TransferClause) (algebra.Transfer, error) {
	fromDim, fromID, err := ev.resolveMember(ev.cube, tc.From)
	if err != nil {
		return algebra.Transfer{}, fmt.Errorf("mdx: transfer from: %w", err)
	}
	toDim, toID, err := ev.resolveMember(ev.cube, tc.To)
	if err != nil {
		return algebra.Transfer{}, fmt.Errorf("mdx: transfer to: %w", err)
	}
	if fromDim != toDim {
		return algebra.Transfer{}, fmt.Errorf("mdx: transfer endpoints span dimensions %s and %s",
			ev.cube.Dim(fromDim).Name(), ev.cube.Dim(toDim).Name())
	}
	d := ev.cube.Dim(fromDim)
	tr := algebra.Transfer{
		Dim:      d.Name(),
		From:     d.Path(fromID),
		To:       d.Path(toID),
		Fraction: tc.Fraction,
	}
	for _, sm := range tc.Scope {
		sd, sid, err := ev.resolveMember(ev.cube, sm)
		if err != nil {
			return algebra.Transfer{}, fmt.Errorf("mdx: transfer scope: %w", err)
		}
		ref := ev.cube.Dim(sd).Path(sid)
		if ref == "" {
			ref = ev.cube.Dim(sd).Name()
		}
		tr.Scope = append(tr.Scope, cube.ScopeCond{Dim: ev.cube.Dim(sd).Name(), Member: ref})
	}
	return tr, nil
}

// resolveChanges maps a CHANGES clause onto algebra changes and
// identifies the varying dimension (from the old parents).
func (ev *Evaluator) resolveChanges(cc *ChangesClause) ([]algebra.Change, string, error) {
	var out []algebra.Change
	varying := ""
	for _, row := range cc.Rows {
		oldDim, oldID, err := ev.resolveMember(ev.cube, row.Old)
		if err != nil {
			return nil, "", fmt.Errorf("mdx: change old parent: %w", err)
		}
		dimName := ev.cube.Dim(oldDim).Name()
		if varying == "" {
			varying = dimName
		} else if varying != dimName {
			return nil, "", fmt.Errorf("mdx: changes span dimensions %s and %s", varying, dimName)
		}
		d := ev.cube.Dim(oldDim)
		newDim, newID, err := ev.resolveMember(ev.cube, row.New)
		if err != nil {
			return nil, "", fmt.Errorf("mdx: change new parent: %w", err)
		}
		if newDim != oldDim {
			return nil, "", fmt.Errorf("mdx: change parents in different dimensions")
		}
		b := ev.cube.BindingFor(dimName)
		if b == nil {
			return nil, "", fmt.Errorf("mdx: dimension %q has no varying binding", dimName)
		}
		atID, err := resolveParam(b.Param, row.At)
		if err != nil {
			return nil, "", fmt.Errorf("mdx: change moment: %w", err)
		}
		at := b.Param.Member(atID)
		if at.LeafOrdinal < 0 {
			return nil, "", fmt.Errorf("mdx: change moment %q is not a leaf of %s", row.At, b.Param.Name())
		}
		// The member field may be a set ([FTE].Children applies the
		// change to every child). Chained changes may reference
		// instances that only exist after earlier rows apply
		// (e.g. [Contractor].[Tom] after Tom moved to Contractor), so a
		// failed resolution of a plain reference falls back to the base
		// name; PlanSplit validates the instance when the row applies.
		memberTuples, err := ev.evalSet(ev.cube, row.Member)
		if err != nil {
			if me, ok := row.Member.(*MemberExpr); ok && me.Fn == "" {
				base := me.Parts[len(me.Parts)-1]
				if len(d.Instances(base)) > 0 {
					out = append(out, algebra.Change{
						Member:    base,
						OldParent: d.Path(oldID),
						NewParent: d.Path(newID),
						T:         at.LeafOrdinal,
					})
					continue
				}
			}
			return nil, "", fmt.Errorf("mdx: change member: %w", err)
		}
		for _, tp := range memberTuples {
			if len(tp) != 1 {
				return nil, "", fmt.Errorf("mdx: change member must be a single-dimension set")
			}
			co := tp[0]
			if co.Dim != oldDim {
				return nil, "", fmt.Errorf("mdx: change member not in dimension %s", dimName)
			}
			m := d.Member(co.Member)
			if m.LeafOrdinal < 0 {
				return nil, "", fmt.Errorf("mdx: change member %q is not a leaf", d.Path(co.Member))
			}
			// The member must currently sit under the old parent.
			if m.Parent != oldID {
				// Tolerate path-specified members whose ref already
				// includes the old parent.
				if !d.IsDescendant(co.Member, oldID) {
					return nil, "", fmt.Errorf("mdx: member %q is not under %q", d.Path(co.Member), d.Path(oldID))
				}
			}
			out = append(out, algebra.Change{
				Member:    m.Name,
				OldParent: d.Path(oldID),
				NewParent: d.Path(newID),
				T:         at.LeafOrdinal,
			})
		}
	}
	return out, varying, nil
}

// grid is a query's axes and slicer resolved to member tuples of one
// cube schema.
type grid struct {
	cols, rows                 []Tuple
	slicer                     Tuple
	colsNonEmpty, rowsNonEmpty bool
}

// core returns the grid's cells as the engine's projection reads them.
func (gr *grid) core() core.Grid { return core.Grid{Rows: gr.rows, Cols: gr.cols, Slicer: gr.slicer} }

// resolveGrid evaluates the query's axis sets and slicer against the
// dimensions of c.
func (ev *Evaluator) resolveGrid(c *cube.Cube, q *Query) (*grid, error) {
	gr := &grid{}
	var hasCols, hasRows bool
	for _, ax := range q.Axes {
		tuples, err := ev.evalSet(c, ax.Set)
		if err != nil {
			return nil, err
		}
		switch ax.Name {
		case "COLUMNS":
			gr.cols, hasCols = tuples, true
			gr.colsNonEmpty = ax.NonEmpty
		case "ROWS":
			gr.rows, hasRows = tuples, true
			gr.rowsNonEmpty = ax.NonEmpty
		}
	}
	// An absent axis contributes a single all-default tuple; a present
	// axis whose set evaluated empty stays empty.
	if !hasCols {
		gr.cols = []Tuple{{}}
	}
	if !hasRows {
		gr.rows = []Tuple{{}}
	}

	// Slicer.
	onAxis := map[int]bool{}
	for _, tuples := range [][]Tuple{gr.cols, gr.rows} {
		for _, tp := range tuples {
			for _, co := range tp {
				onAxis[co.Dim] = true
			}
		}
	}
	for _, w := range q.Where {
		dim, id, err := ev.resolveMember(c, w)
		if err != nil {
			return nil, fmt.Errorf("mdx: slicer: %w", err)
		}
		if onAxis[dim] {
			return nil, fmt.Errorf("mdx: dimension %s appears both on an axis and in the slicer", c.Dim(dim).Name())
		}
		gr.slicer = append(gr.slicer, Coord{Dim: dim, Member: id})
	}
	return gr, nil
}

// project builds the output grid from the algebra path's result cube
// out, whose schema exists only now: it resolves the query's grid over
// out and evaluates it cell by cell under mode.
func (ev *Evaluator) project(rc RunContext, q *Query, out *cube.Cube, mode perspective.Mode) (*result.Grid, error) {
	gr, err := ev.resolveGrid(out, q)
	if err != nil {
		return nil, err
	}
	g := ev.newGrid(out, gr, q)
	base := make([]dimension.MemberID, out.NumDims())
	for i := 0; i < out.NumDims(); i++ {
		base[i] = out.Dim(i).Root()
	}
	ids := make([]dimension.MemberID, out.NumDims())
	for i, rt := range gr.rows {
		if err := rc.Err(); err != nil {
			return nil, err
		}
		for j, ct := range gr.cols {
			copy(ids, base)
			for _, co := range gr.slicer {
				ids[co.Dim] = co.Member
			}
			for _, co := range ct {
				ids[co.Dim] = co.Member
			}
			for _, co := range rt {
				ids[co.Dim] = co.Member
			}
			v, err := algebra.CellValue(ev.cube, out, ids, mode)
			if err != nil {
				return nil, err
			}
			g.Values[i][j] = v
		}
	}
	gr.trim(g)
	return g, nil
}

// newGrid returns the output grid of grid gr over cube c, labelled,
// with the requested dimension properties and its values still to fill.
func (ev *Evaluator) newGrid(c *cube.Cube, gr *grid, q *Query) *result.Grid {
	g := result.New(len(gr.rows), len(gr.cols))
	for j, tp := range gr.cols {
		g.ColLabels[j] = ev.tupleLabel(c, tp)
	}
	props := q.DimProperties
	g.PropNames = append(g.PropNames, props...)
	for i, rt := range gr.rows {
		g.RowLabels[i] = ev.tupleLabel(c, rt)
		if len(props) > 0 {
			g.RowProps = append(g.RowProps, ev.rowProps(c, rt, props))
		}
	}
	return g
}

// trim drops the empty rows and columns of g where the query asked
// for NON EMPTY.
func (gr *grid) trim(g *result.Grid) {
	if gr.rowsNonEmpty {
		g.DropEmptyRows()
	}
	if gr.colsNonEmpty {
		g.DropEmptyCols()
	}
}

// rowProps computes DIMENSION PROPERTIES values for one row: for a
// property naming a dimension present in the row tuple, the member's
// parent path (e.g. the department an employee instance reports to).
func (ev *Evaluator) rowProps(c *cube.Cube, row Tuple, props []string) []string {
	out := make([]string, len(props))
	for k, p := range props {
		di := c.DimIndex(p)
		if di < 0 {
			out[k] = ""
			continue
		}
		for _, co := range row {
			if co.Dim != di {
				continue
			}
			m := c.Dim(di).Member(co.Member)
			if m.Parent != dimension.None {
				parent := c.Dim(di).Path(m.Parent)
				if parent == "" {
					parent = c.Dim(di).Name()
				}
				out[k] = parent
			}
		}
	}
	return out
}

// tupleLabel labels a grid row or column: its members' paths, the
// root's as the dimension's name, joined by " / ". A one-member tuple's
// label is the path string its dimension records, not a copy.
func (ev *Evaluator) tupleLabel(c *cube.Cube, tp Tuple) string {
	label := func(co Coord) string {
		if p := c.Dim(co.Dim).Path(co.Member); p != "" {
			return p
		}
		return c.Dim(co.Dim).Name()
	}
	switch len(tp) {
	case 0:
		return "(all)"
	case 1:
		return label(tp[0])
	}
	parts := make([]string, len(tp))
	for i, co := range tp {
		parts[i] = label(co)
	}
	return strings.Join(parts, " / ")
}

// evalSet evaluates a set expression into tuples against the cube's
// dimensions.
func (ev *Evaluator) evalSet(c *cube.Cube, s SetExpr) ([]Tuple, error) {
	switch x := s.(type) {
	case *SetLiteral:
		var out []Tuple
		for _, e := range x.Elems {
			ts, err := ev.evalSet(c, e)
			if err != nil {
				return nil, err
			}
			out = append(out, ts...)
		}
		return out, nil

	case *TupleExpr:
		tp := make(Tuple, 0, len(x.Members))
		for _, m := range x.Members {
			if m.Fn != "" {
				return nil, fmt.Errorf("mdx: member function %s not allowed inside a tuple", m.Fn)
			}
			dim, id, err := ev.resolveMember(c, m)
			if err != nil {
				return nil, err
			}
			tp = append(tp, Coord{Dim: dim, Member: id})
		}
		return []Tuple{tp}, nil

	case *CrossJoin:
		l, err := ev.evalSet(c, x.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalSet(c, x.R)
		if err != nil {
			return nil, err
		}
		out := make([]Tuple, 0, len(l)*len(r))
		for _, lt := range l {
			for _, rt := range r {
				tp := make(Tuple, 0, len(lt)+len(rt))
				tp = append(tp, lt...)
				tp = append(tp, rt...)
				out = append(out, tp)
			}
		}
		return out, nil

	case *Union:
		l, err := ev.evalSet(c, x.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalSet(c, x.R)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		var out []Tuple
		for _, tp := range append(l, r...) {
			k := tupleKey(tp)
			if !seen[k] {
				seen[k] = true
				out = append(out, tp)
			}
		}
		return out, nil

	case *Head:
		ts, err := ev.evalSet(c, x.Set)
		if err != nil {
			return nil, err
		}
		if x.N < 0 {
			return nil, fmt.Errorf("mdx: Head count %d is negative", x.N)
		}
		if x.N < len(ts) {
			ts = ts[:x.N]
		}
		return ts, nil

	case *Descendants:
		dim, id, err := ev.resolveMember(c, x.Of)
		if err != nil {
			return nil, err
		}
		d := c.Dim(dim)
		var out []Tuple
		var walk func(m dimension.MemberID)
		walk = func(m dimension.MemberID) {
			mm := d.Member(m)
			include := false
			if mm.Parent != dimension.None || m != id {
				switch {
				case x.Layer < 0:
					include = m != id // all strict descendants
				case x.Flag == DescSelf:
					include = mm.Depth == x.Layer
				case x.Flag == DescSelfAndAfter:
					include = mm.Depth >= x.Layer
				case x.Flag == DescAfter:
					include = mm.Depth > x.Layer
				}
			}
			if include {
				out = append(out, Tuple{{Dim: dim, Member: m}})
			}
			for _, ch := range mm.Children {
				walk(ch)
			}
		}
		walk(id)
		return out, nil

	case *MemberExpr:
		return ev.evalMemberSet(c, x)
	}
	return nil, fmt.Errorf("mdx: unknown set expression %T", s)
}

// evalMemberSet expands a member expression (with optional trailing
// function) into tuples.
func (ev *Evaluator) evalMemberSet(c *cube.Cube, m *MemberExpr) ([]Tuple, error) {
	dim, id, err := ev.resolveMember(c, m)
	if err != nil {
		return nil, err
	}
	d := c.Dim(dim)
	switch m.Fn {
	case "":
		return []Tuple{{{Dim: dim, Member: id}}}, nil
	case "Children":
		var out []Tuple
		for _, ch := range d.Member(id).Children {
			out = append(out, Tuple{{Dim: dim, Member: ch}})
		}
		return out, nil
	case "Members":
		if id != d.Root() {
			return nil, fmt.Errorf("mdx: .Members applies to a dimension, not member %q", d.Path(id))
		}
		var out []Tuple
		for i := dimension.MemberID(1); int(i) < d.NumMembers(); i++ {
			out = append(out, Tuple{{Dim: dim, Member: i}})
		}
		return out, nil
	case "Levels":
		if id != d.Root() {
			return nil, fmt.Errorf("mdx: .Levels applies to a dimension, not member %q", d.Path(id))
		}
		var out []Tuple
		for _, lm := range d.LevelMembers(m.Level) {
			out = append(out, Tuple{{Dim: dim, Member: lm}})
		}
		return out, nil
	}
	return nil, fmt.Errorf("mdx: unknown member function %q", m.Fn)
}

// resolveMember resolves a member path to (dimension index, member ID).
// The first path part may name the dimension; otherwise all dimensions
// are searched and the reference must be unambiguous. The search probes
// with findParts, so only a reference that fails as a whole formats an
// error.
func (ev *Evaluator) resolveMember(c *cube.Cube, m *MemberExpr) (int, dimension.MemberID, error) {
	if len(m.Parts) == 0 {
		return 0, 0, fmt.Errorf("mdx: empty member reference")
	}
	// Dimension-qualified.
	if di := c.DimIndex(m.Parts[0]); di >= 0 {
		rest := m.Parts[1:]
		if len(rest) == 0 {
			return di, c.Dim(di).Root(), nil
		}
		id, err := lookupParts(c.Dim(di), rest)
		if err != nil {
			return 0, 0, err
		}
		return di, id, nil
	}
	// Unqualified: search all dimensions.
	foundDim, foundID := -1, dimension.None
	for di := 0; di < c.NumDims(); di++ {
		id, ok := findParts(c.Dim(di), m.Parts)
		if !ok {
			continue
		}
		if foundDim >= 0 {
			return 0, 0, fmt.Errorf("mdx: member %s is ambiguous between dimensions %s and %s",
				m, c.Dim(foundDim).Name(), c.Dim(di).Name())
		}
		foundDim, foundID = di, id
	}
	if foundDim < 0 {
		return 0, 0, fmt.Errorf("mdx: no dimension has member %s", m)
	}
	return foundDim, foundID, nil
}

// resolveParam resolves a reference to a member of the parameter
// dimension d — a perspective point or a change moment — on its whole
// path, which may lead with the dimension's name.
func resolveParam(d *dimension.Dimension, m *MemberExpr) (dimension.MemberID, error) {
	parts := m.Parts
	if len(parts) > 1 && parts[0] == d.Name() {
		parts = parts[1:]
	}
	if len(parts) == 0 {
		return dimension.None, fmt.Errorf("mdx: empty member reference")
	}
	return lookupParts(d, parts)
}

// lookupParts resolves path parts within one dimension by findParts'
// rules, with the error of the last step that failed.
func lookupParts(d *dimension.Dimension, parts []string) (dimension.MemberID, error) {
	if id, ok := findParts(d, parts); ok {
		return id, nil
	}
	id, err := d.Lookup(parts[0])
	if err != nil {
		return dimension.None, err
	}
	for _, p := range parts[1:] {
		next := childNamed(d, id, p)
		if next == dimension.None {
			return dimension.None, fmt.Errorf("dimension %s: %q has no child %q", d.Name(), d.Path(id), p)
		}
		id = next
	}
	return id, nil
}

// findParts resolves path parts within one dimension: a full path first,
// then the head resolved on its own and walked down by child names (the
// leading parts may repeat hierarchy context, e.g. [FTE].[Joe] vs [Joe],
// and may skip intermediate levels only when unambiguous). It formats no
// error, and joins the parts only when there are several.
func findParts(d *dimension.Dimension, parts []string) (dimension.MemberID, bool) {
	if len(parts) == 1 {
		return d.Find(parts[0])
	}
	if id, ok := d.Find(strings.Join(parts, "/")); ok {
		return id, true
	}
	id, ok := d.Find(parts[0])
	for _, p := range parts[1:] {
		if !ok {
			break
		}
		id = childNamed(d, id, p)
		ok = id != dimension.None
	}
	return id, ok
}

// childNamed returns the child of id with the given simple name, or None.
func childNamed(d *dimension.Dimension, id dimension.MemberID, name string) dimension.MemberID {
	for _, ch := range d.Member(id).Children {
		if d.Member(ch).Name == name {
			return ch
		}
	}
	return dimension.None
}

func tupleKey(tp Tuple) string {
	var b strings.Builder
	for _, co := range tp {
		fmt.Fprintf(&b, "%d:%d;", co.Dim, co.Member)
	}
	return b.String()
}
