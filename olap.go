// Package olap is a Go implementation of what-if OLAP queries with
// changing dimensions, after Lakshmanan, Russakovsky and Sashikanth
// (ICDE 2008).
//
// The library models multidimensional cubes whose dimension hierarchies
// change as a function of a parameter dimension (time, location, …):
// a member reclassified under different parents exists as several
// member instances, each with a validity set. What-if queries either
// negate such changes ("WITH PERSPECTIVE", §3.3) or hypothetically
// impose new ones ("WITH CHANGES", §3.4), with static/forward/backward
// semantics and visual/non-visual aggregate evaluation.
//
// Three layers are exposed:
//
//   - the data model: Dimension, Binding, Cube (NewDimension, NewCube,
//     NewChunkedCube);
//   - the what-if algebra: ApplyPerspectives, ApplyChanges, CellValue —
//     cube-to-cube operators (paper §4);
//   - the perspective-cube engine and extended MDX: NewEngine for
//     chunk-backed cubes (paper §5) and Query for the extended-MDX
//     surface (paper §3).
//
// Quickstart:
//
//	c := olap.PaperWarehouse()
//	grid, err := olap.Query(c, `
//	    WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
//	    SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS,
//	           {[PTE].Children} ON ROWS
//	    FROM Warehouse
//	    WHERE ([Location].[NY], [Measures].[Salary])`)
//	fmt.Print(grid)
package olap

import (
	"context"
	"fmt"

	"whatifolap/internal/algebra"
	"whatifolap/internal/chunk"
	"whatifolap/internal/core"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/mdx"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/result"
	"whatifolap/internal/scenario"
	"whatifolap/internal/segment"
	"whatifolap/internal/trace"
	"whatifolap/internal/workload"
)

// Core model types.
type (
	// Cube is an n-dimensional mapping from member tuples to values.
	Cube = cube.Cube
	// Dimension is a member hierarchy; varying dimensions hold member
	// instances.
	Dimension = dimension.Dimension
	// Member is a node of a dimension hierarchy.
	Member = dimension.Member
	// MemberID identifies a member within its dimension.
	MemberID = dimension.MemberID
	// Binding declares a varying dimension changing over a parameter
	// dimension, with per-instance validity sets.
	Binding = dimension.Binding
	// Store abstracts cube cell storage.
	Store = cube.Store
	// RuleSet defines derived-cell computation (formulas and rollup).
	RuleSet = cube.RuleSet
	// ScopeCond scopes a formula rule to a hierarchy subtree.
	ScopeCond = cube.ScopeCond
)

// What-if query types.
type (
	// Semantics selects static/forward/backward perspective semantics.
	Semantics = perspective.Semantics
	// Mode selects visual or non-visual aggregate evaluation.
	Mode = perspective.Mode
	// Change is one tuple of a positive-scenario relation R(m, o, n, t).
	Change = algebra.Change
	// Transfer is a data-driven scenario: a fraction of matching cells
	// moves between two members (paper §1's salary-reallocation
	// example).
	Transfer = algebra.Transfer
	// Predicate restricts selection (σ) to matching members.
	Predicate = algebra.Predicate
	// Engine evaluates what-if queries over chunked cubes.
	Engine = core.Engine
	// View is a queryable perspective cube.
	View = core.View
	// EngineStats reports the engine's execution profile.
	EngineStats = core.Stats
	// ReadOrder selects the engine's chunk read-order policy.
	ReadOrder = core.ReadOrder
	// ExecContext carries the per-execution cancellation context into
	// the engine's ExecPerspectiveWith/ExecChangesWith.
	ExecContext = core.ExecContext
	// PhysicalPlan is the engine's inspectable execution plan: pruned
	// relocation targets, merge groups and the chunk read schedule.
	PhysicalPlan = core.PhysicalPlan
	// MergeGroup is one independently scannable partition of a plan.
	MergeGroup = core.MergeGroup
	// RunContext carries per-run settings into Evaluator.RunWith and
	// friends.
	RunContext = mdx.RunContext
	// Grid is a two-axis query result.
	Grid = result.Grid
	// Evaluator runs extended-MDX queries against a cube.
	Evaluator = mdx.Evaluator
	// Trace records an execution's span tree with near-zero overhead;
	// thread one through a query with WithTrace or ExecOptions.Trace.
	Trace = trace.Trace
	// TraceSpan is one recorded span (name, duration, attributes).
	TraceSpan = trace.Span
	// SpillStats describes a spilled cube's buffer pool: resident and
	// spilled chunk counts, fault-ins, evictions, and pinned chunks.
	SpillStats = chunk.SpillStats
)

// Scenario workspace types: named, versioned chains of overlay deltas
// over an immutable base cube — the server-side realization of the
// paper's interactive what-if sessions (see internal/scenario).
type (
	// Scenario accumulates edit batches (cell writes, tombstone
	// deletes, hypothetical new members, validity-window edits) as
	// sealed layers over a pinned base cube; queries resolve through
	// the layer chain without copying the base.
	Scenario = scenario.Scenario
	// ScenarioManager owns a set of scenario workspaces: id
	// allocation, lookup, O(layers) forking and discard.
	ScenarioManager = scenario.Manager
	// ScenarioEdit is one edit of an atomic scenario batch.
	ScenarioEdit = scenario.Edit
	// ScenarioInfo is a scenario's summary.
	ScenarioInfo = scenario.Info
	// CellDiff is one cell differing between two scenarios.
	CellDiff = scenario.CellDiff
)

// Scenario edit op names for ScenarioEdit.Op.
const (
	ScenarioOpSet       = scenario.OpSet
	ScenarioOpDelete    = scenario.OpDelete
	ScenarioOpNewMember = scenario.OpNewMember
	ScenarioOpValidity  = scenario.OpValidity
)

// Workload generator types.
type (
	// WorkforceConfig parameterizes the workforce-planning dataset of
	// the paper's evaluation.
	WorkforceConfig = workload.WorkforceConfig
	// Workforce is a generated workforce dataset.
	Workforce = workload.Workforce
	// RetailConfig parameterizes the product/market dataset.
	RetailConfig = workload.RetailConfig
	// Retail is a generated retail dataset.
	Retail = workload.Retail
)

// Perspective semantics (paper §3.3).
const (
	Static           = perspective.Static
	Forward          = perspective.Forward
	ExtendedForward  = perspective.ExtendedForward
	Backward         = perspective.Backward
	ExtendedBackward = perspective.ExtendedBackward
)

// Non-leaf evaluation modes (paper §3.3).
const (
	NonVisual = perspective.NonVisual
	Visual    = perspective.Visual
)

// Engine read-order policies (paper §5.2 and Lemma 5.1).
const (
	OrderPebbling     = core.OrderPebbling
	OrderVaryingFirst = core.OrderVaryingFirst
	OrderVaryingLast  = core.OrderVaryingLast
	OrderCanonical    = core.OrderCanonical
)

// Null is the meaningless cell value ⊥.
var Null = cube.Null

// IsNull reports whether a value is ⊥.
func IsNull(v float64) bool { return cube.IsNull(v) }

// NewDimension creates a dimension. Ordered dimensions can drive
// dynamic (forward/backward) perspective semantics.
func NewDimension(name string, ordered bool) *Dimension {
	return dimension.New(name, ordered)
}

// NewBinding declares that varying changes as a function of param.
// Record instance validity with Binding.SetVS, then register the
// binding with Cube.AddBinding.
func NewBinding(varying, param *Dimension) *Binding {
	return dimension.NewBinding(varying, param)
}

// NewCube creates a sparse in-memory cube over the dimensions.
func NewCube(dims ...*Dimension) *Cube { return cube.New(dims...) }

// NewChunkedCube creates a cube backed by the chunked-array store the
// perspective-cube engine requires. chunkDims gives per-dimension chunk
// edges (clamped to the dimension extent).
func NewChunkedCube(chunkDims []int, dims ...*Dimension) (*Cube, error) {
	extents := make([]int, len(dims))
	for i, d := range dims {
		extents[i] = d.NumLeaves()
	}
	g, err := chunk.NewGeometry(extents, chunkDims)
	if err != nil {
		return nil, err
	}
	return cube.NewWithStore(chunk.NewStore(g), dims...), nil
}

// SpillTo bounds a chunk-backed cube's resident memory: it writes the
// cube's chunks to a checksummed segment file at path, and from then on
// least-recently-used chunks leave memory and fault back from the file
// — the paper's cube-behind-a-cache configuration (its testbed held a
// 20.2 GB cube behind a 256 MB cache). The file is never rewritten, so
// the cube is read-only afterwards: writing a cell panics, and a cube
// to edit is a Clone, which is resident. The cube must be chunk-backed
// (NewChunkedCube, PaperWarehouseChunked, NewWorkforce).
func SpillTo(c *Cube, path string, budgetBytes int) error {
	st, ok := c.Store().(*chunk.Store)
	if !ok {
		return fmt.Errorf("olap: SpillTo requires a chunk-backed cube, got %T", c.Store())
	}
	return segment.PageOut(st, path, budgetBytes)
}

// EncodeRuns settles a chunk-backed cube's chunks: each is run-length
// encoded where its bit-identical value runs number at most half its
// cells, and otherwise kept sparse or dense by occupancy. Returns how
// many chunks converted. A cube the server catalog published is settled
// already and converts nothing; so does a paged cube (SpillTo, or one
// restored from a data directory), whose chunks are its segment's.
// Reads stay exact (runs decode to the original bit patterns).
func EncodeRuns(c *Cube) (int, error) {
	st, ok := c.Store().(*chunk.Store)
	if !ok {
		return 0, fmt.Errorf("olap: EncodeRuns requires a chunk-backed cube, got %T", c.Store())
	}
	return st.Settle(), nil
}

// CubeSpillStats reports the buffer-pool state of a chunk-backed cube:
// chunk counts on each side of the budget line, fault-ins, evictions
// (chunks dropped; the segment file still holds them), and currently
// pinned chunks. Without a segment behind the cube (no
// SpillTo call, not restored from a data directory) only Resident is
// populated. Safe to call while queries run.
func CubeSpillStats(c *Cube) (SpillStats, error) {
	st, ok := c.Store().(*chunk.Store)
	if !ok {
		return SpillStats{}, fmt.Errorf("olap: CubeSpillStats requires a chunk-backed cube, got %T", c.Store())
	}
	return st.SpillStats(), nil
}

// NewEngine creates a perspective-cube engine over a chunk-backed cube
// for the named varying dimension.
func NewEngine(c *Cube, varyingDim string) (*Engine, error) {
	return core.New(c, varyingDim)
}

// NewEvaluator creates an extended-MDX evaluator bound to a cube.
func NewEvaluator(c *Cube) *Evaluator { return mdx.NewEvaluator(c) }

// evaluate is the facade's one route into the evaluator: Query,
// QueryContext, QueryOptions, QueryScenario and ExplainAnalyze differ
// only in the RunContext and cube they hand it. analyze runs the query
// under a fresh trace and returns its rendering and the engine
// statistics as well.
func evaluate(rc mdx.RunContext, c *Cube, src string, analyze bool) (string, *Grid, EngineStats, error) {
	ev := mdx.NewEvaluator(c)
	if !analyze {
		g, err := ev.RunWith(rc, src)
		return "", g, EngineStats{}, err
	}
	q, err := mdx.Parse(src)
	if err != nil {
		return "", nil, EngineStats{}, err
	}
	return ev.ExplainAnalyze(rc, q)
}

// Query parses and runs an extended-MDX query against the cube.
func Query(c *Cube, src string) (*Grid, error) {
	_, g, _, err := evaluate(mdx.RunContext{}, c, src, false)
	return g, err
}

// QueryContext is Query under a context: deadlines and cancellation
// are observed at chunk-iteration boundaries in the engine and between
// result rows, so long scans abandon promptly with the context's
// error. This is the entry point the CLI's -timeout flag uses.
func QueryContext(ctx context.Context, c *Cube, src string) (*Grid, error) {
	return QueryOptions(ctx, c, src, ExecOptions{})
}

// NewScenario creates a standalone scenario workspace over a cube,
// outside any server catalog — apply edits with Scenario.Apply, query
// the layered view with QueryScenario, flatten with
// Scenario.Materialize.
func NewScenario(name string, base *Cube) (*Scenario, error) {
	return scenario.NewLocal(name, base)
}

// NewScenarioManager creates an empty scenario manager.
func NewScenarioManager() *ScenarioManager { return scenario.NewManager() }

// ScenarioDiff computes the cell-by-cell difference between two
// scenarios over the same cube; diff(A, A) is empty.
func ScenarioDiff(a, b *Scenario) ([]CellDiff, error) { return scenario.Diff(a, b) }

// QueryScenario runs an extended-MDX query against the scenario's
// layered view: base chunks resolved through the layer chain, newest
// layer wins, nothing copied.
func QueryScenario(ctx context.Context, s *Scenario, src string) (*Grid, error) {
	view, _, err := s.View()
	if err != nil {
		return nil, err
	}
	return QueryOptions(ctx, view, src, ExecOptions{})
}

// ExecOptions tunes one query execution.
type ExecOptions struct {
	// Trace, when non-nil, records the execution's span tree into the
	// given recorder (parse, plan, scan, spill faults, project).
	// Recording is lock-free and allocation-free; a nil Trace costs
	// nothing.
	Trace *Trace
}

// QueryOptions is QueryContext with execution options: the context and
// the trace recorder are threaded through the evaluator into the engine
// for this run only, so one cube can serve differently configured
// queries concurrently.
func QueryOptions(ctx context.Context, c *Cube, src string, opts ExecOptions) (*Grid, error) {
	if opts.Trace != nil {
		if ctx == nil {
			ctx = context.Background()
		}
		ctx = trace.NewContext(ctx, opts.Trace)
	}
	_, g, _, err := evaluate(mdx.RunContext{Ctx: ctx}, c, src, false)
	return g, err
}

// NewTrace creates a span recorder holding up to maxSpans spans
// (0 picks the default). One recorder serves one query at a time;
// Reset reuses the buffer for the next.
func NewTrace(maxSpans int) *Trace { return trace.New(maxSpans) }

// WithTrace returns a context that carries the recorder into any query
// run under it: the evaluator and engine record their pipeline spans
// without further wiring. QueryContext(WithTrace(ctx, tr), c, src) is
// the loose-coupling spelling of QueryOptions with ExecOptions.Trace.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return trace.NewContext(ctx, tr)
}

// ExplainAnalyze parses and runs the query under a fresh trace and
// returns the rendered span tree with per-stage totals, alongside the
// grid and engine stats. The MDX surface reaches the same machinery
// with an "EXPLAIN ANALYZE" query prefix.
func ExplainAnalyze(c *Cube, src string) (string, *Grid, EngineStats, error) {
	return evaluate(mdx.RunContext{}, c, src, true)
}

// NormalizeQuery canonicalizes extended-MDX source without parsing it:
// comments stripped, whitespace collapsed, keywords upper-cased,
// member names untouched. Queries that tokenize identically normalize
// identically, which makes the result a sound cache key (the query
// service keys its result cache on it).
func NormalizeQuery(src string) (string, error) { return mdx.Normalize(src) }

// ApplyPerspectives runs the negative-scenario pipeline of the algebra
// (σ/Φ/ρ composition, paper Theorem 4.1) on any cube: the result holds
// the relocated leaf cells. Evaluate aggregates with CellValue.
func ApplyPerspectives(c *Cube, varyingDim string, sem Semantics, perspectives []int) (*Cube, error) {
	return algebra.ApplyPerspectives(c, varyingDim, sem, perspectives)
}

// ApplyChanges runs the positive-scenario pipeline (split operator S).
func ApplyChanges(c *Cube, varyingDim string, changes []Change) (*Cube, error) {
	return algebra.ApplyChanges(c, varyingDim, changes)
}

// ApplyTransfer runs a data-driven scenario: Fraction of every matching
// cell's value moves from Transfer.From to Transfer.To along
// Transfer.Dim.
func ApplyTransfer(c *Cube, tr Transfer) (*Cube, error) {
	return algebra.ApplyTransfer(c, tr)
}

// CellValue evaluates one cell of a what-if result under the given
// mode: visual re-aggregates over the transformed cube, non-visual
// retains input aggregates.
func CellValue(input, output *Cube, ids []MemberID, mode Mode) (float64, error) {
	return algebra.CellValue(input, output, ids, mode)
}

// Select applies the σ operator: the sub-cubes of members failing the
// predicate are removed.
func Select(c *Cube, dim string, p Predicate) (*Cube, error) {
	return algebra.Select(c, dim, p)
}

// PaperWarehouse builds the paper's running example (Fig. 1/2): the
// workforce warehouse in which employee Joe is reclassified FTE → PTE →
// Contractor. Backed by a plain in-memory store.
func PaperWarehouse() *Cube { return paperdata.Warehouse() }

// PaperWarehouseChunked is PaperWarehouse over chunked storage, usable
// with NewEngine.
func PaperWarehouseChunked() *Cube { return paperdata.ChunkedWarehouse(nil) }

// NewWorkforce generates the paper's evaluation dataset shape at the
// configured scale.
func NewWorkforce(cfg WorkforceConfig) (*Workforce, error) {
	return workload.NewWorkforce(cfg)
}

// WorkforceDefault returns the default laptop-scale workforce
// configuration (51 departments, 250 changing employees, 12 months).
func WorkforceDefault() WorkforceConfig { return workload.ConfigDefault() }

// WorkforcePaper returns the paper's full dataset scale (121M cells).
func WorkforcePaper() WorkforceConfig { return workload.ConfigPaper() }

// NewRetailByTime generates the product/market dataset with products
// re-bundled over time.
func NewRetailByTime(cfg RetailConfig) (*Retail, error) {
	return workload.NewRetailByTime(cfg)
}

// NewRetailByMarket generates the dataset with bundling varying across
// markets (an unordered parameter dimension).
func NewRetailByMarket(cfg RetailConfig) (*Retail, error) {
	return workload.NewRetailByMarket(cfg)
}

// RetailDefault returns the default retail configuration.
func RetailDefault() RetailConfig { return workload.ConfigRetail() }
