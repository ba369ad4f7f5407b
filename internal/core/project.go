package core

import (
	"math"
	"math/bits"
	"slices"

	//lint:hotpathok CellValue runs for fallback grid cells after the pass, never per chunk cell; algebra formats only errors
	"whatifolap/internal/algebra"
	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/perspective"
	"whatifolap/internal/trace"
)

// This file is a query hot path: span recording happens here, span
// formatting must not (no fmt import — verify.sh enforces it).

// Coord pins one dimension of a grid cell to a member.
type Coord struct {
	Dim    int
	Member dimension.MemberID
}

// Tuple is an ordered list of coordinates from distinct dimensions.
type Tuple []Coord

// Grid is a query's result grid as its lowering resolved it: cell
// (i, j) names, in each dimension, its coordinate in Rows[i], else in
// Cols[j], else in Slicer, else the dimension's root.
type Grid struct {
	Rows, Cols []Tuple
	Slicer     Tuple
}

// cellIDs writes cell (i, j)'s member tuple into ids.
func (g Grid) cellIDs(ids []dimension.MemberID, i, j int) {
	clear(ids) // member 0 is every dimension's root
	for _, tp := range [...]Tuple{g.Slicer, g.Cols[j], g.Rows[i]} {
		for _, co := range tp {
			ids[co.Dim] = co.Member
		}
	}
}

// ProjectStats describes one projection of a grid.
type ProjectStats struct {
	// Compiled counts the grid cells the accumulator pass answered (the ⊥
	// of a hypothetical instance the input lacks included), Fallback
	// those algebra.CellValue evaluated one by one, and Reason names why
	// the first of those could not be compiled.
	Compiled, Fallback int
	Reason             string
	// Folded counts accumulator folds, one per source cell per grid cell
	// it feeds — a fused scan's included; ChunksRead the store chunks the
	// scan read for the grid's base and input cells alone, past the
	// plan's schedule (the overlay's chunks are the query's own, in
	// memory, and not counted).
	Folded, ChunksRead int
	// Fused reports that the scan folded the view's relocated cells into
	// the accumulators and built no overlay (for Plan*Projected: that it
	// would). A query projected as it runs fuses unless a cell falls
	// back; a view a caller took was scanned into an overlay.
	Fused bool
}

// Why a grid cell falls back to per-cell evaluation.
const (
	reasonFormula      = "formula rule "
	reasonMaterialized = "materialized aggregate"
	reasonWide         = "more than 64 dimensions"
	reasonKeySpace     = "more member combinations than an int holds"
)

// A grid cell's class before it has an accumulator, and the two classes
// that never get one.
const (
	cellNull     int32 = -1 // ⊥ unevaluated: names an instance the input lacks
	cellFallback int32 = -2 // evaluated by algebra.CellValue
	cellView     int32 = -3 // folds the view's leaf cells
	cellInput    int32 = -4 // folds the input's leaf cells (NONVISUAL roll-up)
)

// projection is a grid compiled for one accumulator pass. A grid cell
// is either a leaf cell, which reads one leaf of the view, or a roll-up
// of the leaf cells below it — the view's under VISUAL, the input's
// under NONVISUAL (Definition 4.5 retains input aggregates). Either way
// its value is a fold of leaf cells, and a leaf cell feeds exactly the
// grid cells whose every coordinate is its own leaf or an ancestor: the
// ancestor-closed layout of "Hierarchical Datacubes". So instead of a
// leaf walk per grid cell, one pass over the chunks holding the grid's
// leaves folds each cell into every grid cell it feeds.
type projection struct {
	// cell[c] is the accumulator of cell c (row-major) — grid cells with
	// one tuple and one source share it — or cellNull / cellFallback.
	cell []int32
	// acc[a] is accumulator a's value (Null before its first fold) under
	// agg[a]; cnt[a] counts its folds when some accumulator averages.
	acc []float64
	agg []cube.AggFunc
	cnt []int32
	// view and input are the two cell sources, nil when no cell reads one.
	view, input *projSource
	// fallback marks, per dimension, the members the fallback cells that
	// read the result name (footprint); nil when there are none.
	fallback []memberSet
	stats    ProjectStats
}

// compileProjection classifies every cell of g and gives each computed
// cell an accumulator. It reads no cell: schema supplies the result's
// dimensions and rules (a view materializes no aggregate), input the
// input cube NONVISUAL roll-ups are retained from. What a cell takes
// from its column and the fixed part — which dimensions, whether their
// members are leaves or hypothetical, their key contribution — depends
// on its row only through the dimensions the row names, so it is
// decided once per column for each run of rows naming the same ones
// (colSide), and the work per cell is an OR, a compare and an add;
// only a cube with formula rules or materialized aggregates has each
// cell's tuple assembled and classified one by one.
func compileProjection(input, schema *cube.Cube, mode perspective.Mode, g Grid) *projection {
	p := &projection{cell: make([]int32, len(g.Rows)*len(g.Cols))}
	n := schema.NumDims()
	if n > 64 {
		for c := range p.cell {
			p.cell[c] = cellFallback
		}
		p.stats = ProjectStats{Fallback: len(p.cell), Reason: reasonWide}
		return p
	}
	full := uint64(1)<<n - 1
	rows, cols := make([]gridPart, len(g.Rows)), make([]gridPart, len(g.Cols))
	for i, tp := range g.Rows {
		rows[i] = newGridPart(tp, input, schema)
	}
	for j, tp := range g.Cols {
		cols[j] = newGridPart(tp, input, schema)
	}
	fixedTuple := make(Tuple, n, n+len(g.Slicer)) // member 0 is every dimension's root
	for d := range fixedTuple {
		fixedTuple[d].Dim = d
	}
	fixed := newGridPart(append(fixedTuple, g.Slicer...), input, schema)
	sides := make([]colSide, len(cols))
	// newRowMask reports whether row i names other dimensions than the
	// row before it, so that the column sides must be decided anew.
	newRowMask := func(i int) bool { return i == 0 || rows[i].mask != rows[i-1].mask }

	// Pass 1: classes, and which parts' members each source reads.
	perCell := len(schema.Rules().Rules()) > 0 || input.NumAggregates() > 0
	ids := make([]dimension.MemberID, n)
	// Per source, indexed by class − cellInput: the input's, the view's.
	var uses [2]*partUse
	c := 0
	for i := range rows {
		r := &rows[i]
		if newRowMask(i) {
			sideOf(sides, cols, &fixed, r.mask, full)
		}
		for j := range sides {
			s := &sides[j]
			class, reason := cellView, ""
			if perCell {
				g.cellIDs(ids, i, j)
				class, reason = classifyCell(input, schema, mode, ids)
			} else if r.leaf|s.leaf != full && mode != perspective.Visual {
				class = cellInput
				if r.hyp|s.hyp != 0 {
					class = cellNull
				}
			}
			p.cell[c] = class
			c++
			switch class {
			case cellFallback:
				p.stats.Fallback++
				if p.stats.Reason == "" {
					p.stats.Reason = reason
				}
				if mode == perspective.Visual || schema.IsLeafCell(ids) {
					p.markFallback(schema, ids)
				}
				continue
			case cellView, cellInput:
				u := uses[class-cellInput]
				if u == nil {
					u = &partUse{rows: make([]bool, len(rows)), cols: make([]uint64, len(cols))}
					uses[class-cellInput] = u
				}
				u.rows[i] = true
				u.cols[j] |= s.cx
				u.fixed |= s.fx
			}
			p.stats.Compiled++
		}
	}
	defs := [2]*cube.Cube{input, schema}
	var srcs [2]*projSource
	var keys [2]*partKeys
	for k, u := range uses {
		if u == nil {
			continue
		}
		srcs[k] = newProjSource(defs[k].Dims())
		if keys[k] = u.compile(srcs[k], rows, cols, &fixed, len(p.cell)); keys[k] == nil {
			srcs[k] = nil
			p.fallBack(g, schema, cellInput+int32(k))
		}
	}
	p.input, p.view = srcs[0], srcs[1]

	// Pass 2: accumulators, one per distinct (source, tuple), with the
	// function decided once: a leaf cell's value is its one leaf's (sum
	// of one), a roll-up's the declared aggregation (RuleSet.AggFor). A
	// cell's key is its row's contribution plus its column side's.
	p.agg = make([]cube.AggFunc, 0, p.stats.Compiled)
	var colKeys [2][]int
	c = 0
	avg := false
	for i := range rows {
		r := &rows[i]
		if newRowMask(i) {
			sideOf(sides, cols, &fixed, r.mask, full)
			for k, pk := range keys {
				if pk != nil {
					colKeys[k] = pk.columns(colKeys[k], cols, sides)
				}
			}
		}
		for j := range sides {
			class := p.cell[c]
			if class != cellView && class != cellInput {
				c++
				continue
			}
			k := class - cellInput
			src := srcs[k]
			key := keys[k].row[i] + colKeys[k][j]
			a := src.accOf(key)
			if a < 0 {
				a = int32(len(p.agg))
				src.setAcc(key, a)
				f := cube.AggSum
				if r.leaf|sides[j].leaf != full {
					g.cellIDs(ids, i, j)
					f = defs[k].Rules().AggFor(defs[k], ids)
				}
				p.agg = append(p.agg, f)
				avg = avg || f == cube.AggAvg
			}
			p.cell[c] = a
			c++
		}
	}
	p.acc = make([]float64, len(p.agg))
	for a := range p.acc {
		p.acc[a] = cube.Null
	}
	if avg {
		p.cnt = make([]int32, len(p.agg))
	}
	return p
}

// colSide is what a column gives the cells of the rows naming one set of
// dimensions (rmask): the dimensions they take from it (cx) and from the
// fixed part (fx), and among those the ones whose member there is a leaf
// of the result and a hypothetical instance the input lacks.
type colSide struct {
	cx, fx, leaf, hyp uint64
}

// sideOf fills sides with the column sides of cols for rows naming rmask.
func sideOf(sides []colSide, cols []gridPart, fixed *gridPart, rmask, full uint64) {
	for j := range cols {
		col := &cols[j]
		cx, fx := col.mask&^rmask, full&^(rmask|col.mask)
		sides[j] = colSide{cx: cx, fx: fx, leaf: col.leaf&cx | fixed.leaf&fx, hyp: col.hyp&cx | fixed.hyp&fx}
	}
}

// gridPart is a row tuple, a column tuple or the fixed part of every
// cell (the roots under the slicer), summarized as bit masks over the
// dimensions: those it names, those whose member there is a leaf of the
// result, and those whose member the input lacks (a hypothetical
// instance). A cell takes each dimension from its row, else its column,
// else the fixed part, so its own masks are a few bit operations away.
type gridPart struct {
	tuple           Tuple
	mask, leaf, hyp uint64
}

func newGridPart(tp Tuple, input, schema *cube.Cube) gridPart {
	p := gridPart{tuple: tp}
	for _, co := range tp {
		bit := uint64(1) << co.Dim
		p.mask |= bit
		p.leaf &^= bit
		p.hyp &^= bit
		if schema.Dim(co.Dim).Member(co.Member).LeafOrdinal >= 0 {
			p.leaf |= bit
		}
		if int(co.Member) >= input.Dim(co.Dim).NumMembers() {
			p.hyp |= bit
		}
	}
	return p
}

// each calls fn with the member the part names in each dimension of
// dims (a tuple naming a dimension twice names its last member).
func (p *gridPart) each(dims uint64, fn func(d int, id dimension.MemberID)) {
	for k := len(p.tuple) - 1; k >= 0 && dims != 0; k-- {
		if co := p.tuple[k]; dims&(1<<co.Dim) != 0 {
			dims &^= 1 << co.Dim
			fn(co.Dim, co.Member)
		}
	}
}

// partUse records which parts' members one source's cells take: every
// dimension of a row with such a cell, per column the dimensions such a
// cell takes from it, and the fixed part's.
type partUse struct {
	rows  []bool
	cols  []uint64
	fixed uint64
}

// compile marks the members the source's cells name, seals its key
// space and returns the parts' key contributions — nil when the key
// space does not fit an int.
func (u *partUse) compile(src *projSource, rows, cols []gridPart, fixed *gridPart, cells int) *partKeys {
	mark := func(d int, id dimension.MemberID) { src.members[d].add(id) }
	for i := range rows {
		if u.rows[i] {
			rows[i].each(rows[i].mask, mark)
		}
	}
	for j := range cols {
		cols[j].each(u.cols[j], mark)
	}
	fixed.each(u.fixed, mark)
	if !src.seal(cells) {
		return nil
	}
	pk := &partKeys{src: src, row: make([]int, len(rows)), col: make([]int, len(cols)), fixed: make([]int, len(src.dims))}
	for i := range rows {
		if u.rows[i] {
			pk.row[i] = pk.sum(&rows[i], rows[i].mask)
		}
	}
	for j := range cols {
		if u.cols[j] != 0 {
			pk.col[j] = pk.sum(&cols[j], cols[j].mask)
		}
	}
	fixed.each(u.fixed, func(d int, id dimension.MemberID) { pk.fixed[d] = pk.contrib(d, id) })
	return pk
}

// partKeys are one source's key contributions: each row's and each
// column's over the dimensions it names, and the fixed part's per
// dimension.
type partKeys struct {
	src      *projSource
	row, col []int
	fixed    []int
}

func (pk *partKeys) contrib(d int, id dimension.MemberID) int {
	slot, _ := pk.src.members[d].slot(id)
	return slot * pk.src.radix[d]
}

func (pk *partKeys) sum(p *gridPart, dims uint64) int {
	k := 0
	p.each(dims, func(d int, id dimension.MemberID) { k += pk.contrib(d, id) })
	return k
}

// columns returns, in dst, each column's side of the key of a cell in
// the rows sides was decided for: its own contribution over the
// dimensions the row leaves it, plus the fixed part's over the rest —
// summed once per distinct fx, which columns mostly share.
func (pk *partKeys) columns(dst []int, cols []gridPart, sides []colSide) []int {
	dst = dst[:0]
	fxSum, fxMask := 0, uint64(0)
	for j := range cols {
		s := &sides[j]
		k := pk.col[j]
		if s.cx != cols[j].mask {
			k = pk.sum(&cols[j], s.cx)
		}
		if j == 0 || s.fx != fxMask {
			fxSum, fxMask = 0, s.fx
			for fx := s.fx; fx != 0; fx &= fx - 1 {
				fxSum += pk.fixed[bits.TrailingZeros64(fx)]
			}
		}
		dst = append(dst, k+fxSum)
	}
	return dst
}

// classifyCell decides where one grid cell's value comes from: the
// view's leaves (a leaf cell, or a VISUAL roll-up), the input's (a
// NONVISUAL roll-up), nowhere (a NONVISUAL roll-up naming a hypothetical
// instance, ⊥ as in algebra.CellValue), or per-cell evaluation with the
// reason why: a formula rule that defines the cell or may define a leaf
// below it, or an aggregate the input materialized for it.
func classifyCell(input, schema *cube.Cube, mode perspective.Mode, ids []dimension.MemberID) (int32, string) {
	def, class := schema, cellView
	if !schema.IsLeafCell(ids) && mode != perspective.Visual {
		for i, id := range ids {
			if int(id) >= input.Dim(i).NumMembers() {
				return cellNull, ""
			}
		}
		if input.NumAggregates() > 0 && !cube.IsNull(input.Value(ids)) {
			return cellFallback, reasonMaterialized
		}
		def, class = input, cellInput
	}
	if t := def.Rules().FormulaReaches(def, ids); t != "" {
		return cellFallback, reasonFormula + t
	}
	return class, ""
}

// markFallback marks the members of a fallback cell that reads the
// result: a leaf cell, or any cell under VISUAL (algebra.CellValue reads
// a NONVISUAL roll-up from the input).
func (p *projection) markFallback(schema *cube.Cube, ids []dimension.MemberID) {
	if p.fallback == nil {
		p.fallback = newMemberSets(schema.Dims())
	}
	for d, id := range ids {
		p.fallback[d].add(id)
	}
}

// fallBack sends every cell of class to per-cell evaluation, because
// its source's key space does not fit an int. A view cell reads the
// result, so its members join the footprint.
func (p *projection) fallBack(g Grid, schema *cube.Cube, class int32) {
	ids := make([]dimension.MemberID, schema.NumDims())
	for c, cl := range p.cell {
		if cl != class {
			continue
		}
		p.cell[c] = cellFallback
		p.stats.Compiled--
		p.stats.Fallback++
		if p.stats.Reason == "" {
			p.stats.Reason = reasonKeySpace
		}
		if class == cellView {
			g.cellIDs(ids, c/len(g.Cols), c%len(g.Cols))
			p.markFallback(schema, ids)
		}
	}
}

// planned returns the stats of the compiled grid as a query executed
// with it would report them before running: Fused when no cell falls
// back.
func (p *projection) planned() ProjectStats {
	ps := p.stats
	ps.Fused = ps.Fallback == 0
	return ps
}

// Project evaluates the grid over the view into out, indexed [row][col]:
// one accumulator pass over the chunks holding the grid's leaves — the
// base store's (through the scenario chain, when there is one) for the
// view's unscoped rows and for the input, read by the engine's chunk
// loop (scanInto) on an empty schedule, then the overlay's for the
// scoped rows — then algebra.CellValue for the cells the pass cannot
// express. Chunks are visited in canonical ID order and cells in offset
// order, so the result is deterministic; the context is checked between
// chunk reads and between fallback cells. A buffer-pool fault during the
// pass becomes a "fault" span under ec's current span; a read the tier
// fails ends it with the *chunk.ReadError. A view is executed without a
// grid, so its scan built the overlay of every scoped cell
// (ExecPerspectiveProjected folds into the grid instead).
func (v *View) Project(ec ExecContext, g Grid, out [][]float64) (ProjectStats, error) {
	p := compileProjection(v.input, v.result, v.mode, g)
	vs := v.result.Store().(*viewStore)
	plan := &PhysicalPlan{Scoped: vs.scoped, sourceIDs: v.sourceIDs}
	base := p.baseFold(v.engine, plan)
	p.stats.ChunksRead = len(plan.BaseChunks)
	_, err := v.engine.scanInto(ec.Ctx, plan, nil, nil, base, trace.FromContext(ec.Ctx), trace.SpanFromContext(ec.Ctx))
	if err == nil {
		err = p.foldOverlay(ec, vs.overlay)
	}
	if err != nil {
		return p.stats, err
	}
	return p.stats, p.emit(ec, v, g, out)
}

// emit writes the grid's cells into out: the accumulators' values, ⊥,
// and algebra.CellValue over the view for the cells that fall back.
func (p *projection) emit(ec ExecContext, v *View, g Grid, out [][]float64) error {
	ids := make([]dimension.MemberID, v.result.NumDims())
	c := 0
	for i, row := range out {
		for j := range row {
			switch a := p.cell[c]; {
			case a >= 0:
				n := int32(1)
				if p.cnt != nil {
					n = p.cnt[a]
				} else if cube.IsNull(p.acc[a]) {
					n = 0
				}
				row[j] = p.agg[a].Finish(p.acc[a], int(n))
			case a == cellNull:
				row[j] = cube.Null
			default:
				if err := ec.Err(); err != nil {
					return err
				}
				g.cellIDs(ids, i, j)
				val, err := algebra.CellValue(v.input, v.result, ids, v.mode)
				if err != nil {
					return err
				}
				row[j] = val
			}
			c++
		}
	}
	return nil
}

// foldOverlay folds the overlay's chunks into the view cells that read
// them: the scoped rows of a view whose scan did not fuse. A nil overlay
// — the scan folded them — has none.
func (p *projection) foldOverlay(ec ExecContext, overlay *chunk.Overlay) error {
	if p.view == nil || overlay == nil {
		return nil
	}
	og := overlay.Geometry()
	d := newDecoder(p, p.view, og)
	if !d.cover() {
		return nil
	}
	ccoord := make([]int, og.NumDims())
	for _, id := range overlay.ChunkIDs() {
		if err := ec.Err(); err != nil {
			return err
		}
		og.CoordOf(id, ccoord)
		if d.covers(id) && d.begin(ccoord) {
			d.fold(overlay.Chunk(id))
		}
	}
	return nil
}

// baseFold folds, from the chunk reads of the engine's one chunk loop
// (scanInto), the cells a projection reads outside the relocated rows:
// the view's unscoped rows, which are the base's at the same ordinal,
// and the input's cells (NONVISUAL roll-ups). inView and inInput say
// which decoder feeds the grid from the chunk begin positioned on.
type baseFold struct {
	view, input     *decoder
	inView, inInput bool
}

// baseFold returns p's base fold over engine e's store under plan: the
// view's rows but those plan.Scoped leaves to the overlay or the scan.
// It sets plan.BaseChunks to the chunks of the plan's source IDs that
// the fold reads and the plan does not schedule, ascending: the loop
// visits them after the schedule. It returns nil when no chunk holds a
// cell the fold reads.
func (p *projection) baseFold(e *Engine, plan *PhysicalPlan) *baseFold {
	var b baseFold
	g := e.store.Geometry()
	if p.view != nil {
		d := newDecoder(p, p.view, g)
		if d.vi, d.scoped = e.vi, plan.Scoped; d.cover() {
			b.view = d
		}
	}
	if p.input != nil {
		if d := newDecoder(p, p.input, g); d.cover() {
			b.input = d
		}
	}
	if b.view == nil && b.input == nil {
		return nil
	}
	scheduled := plan.nodes
	for _, id := range plan.sourceIDs {
		for len(scheduled) > 0 && scheduled[0] < id {
			scheduled = scheduled[1:]
		}
		if len(scheduled) > 0 && scheduled[0] == id {
			continue
		}
		if b.view != nil && b.view.covers(id) || b.input != nil && b.input.covers(id) {
			plan.BaseChunks = append(plan.BaseChunks, id)
		}
	}
	return &b
}

// begin positions the decoders on chunk id at ccoord and reports whether
// either feeds the grid from it.
func (b *baseFold) begin(id int, ccoord []int) bool {
	b.inView = b.view != nil && b.view.covers(id) && b.view.begin(ccoord)
	b.inInput = b.input != nil && b.input.covers(id) && b.input.begin(ccoord)
	return b.inView || b.inInput
}

// fold folds the chunk begin positioned on, as read (resolved under a
// layer chain).
func (b *baseFold) fold(ch *chunk.Chunk) {
	if b.inView {
		b.view.fold(ch)
	}
	if b.inInput {
		b.input.fold(ch)
	}
}

// fold folds n cells holding v into accumulator a, as AggFunc.Apply
// would fold them one by one: a sum adds n·v, a count n, min and max
// take v; a negative a is a key no grid cell has (the grid's tuples
// need not form a cross product).
func (p *projection) fold(a int32, v float64, n int) {
	if a < 0 {
		return
	}
	f, seen := p.agg[a], 1
	if cube.IsNull(p.acc[a]) {
		seen = 0
	}
	switch {
	case n == 1 || f == cube.AggMin || f == cube.AggMax:
		p.acc[a] = f.Apply(p.acc[a], seen, v)
	case f == cube.AggCount:
		p.acc[a] = f.Apply(p.acc[a], seen, v) + float64(n-1)
	default:
		p.acc[a] = f.Apply(p.acc[a], seen, float64(n)*v)
	}
	if p.cnt != nil {
		p.cnt[a] += int32(n)
	}
	p.stats.Folded += n
}

// projSource is one cell source compiled over the grid cells that read
// it: per dimension the distinct members they name, and the dense key
// space of member combinations mapped to accumulators.
type projSource struct {
	dims []*dimension.Dimension
	// members[d] are the members of dimension d the cells name; a
	// member's slot is its index among them in ID order, and a cell's
	// key the sum of its slots times radix.
	members []memberSet
	radix   []int
	// byKey maps a key to its accumulator (-1: no grid cell), densely —
	// or, when the grid's tuples leave most of the key space empty, in
	// sparse.
	byKey  []int32
	sparse map[int]int32
}

func newProjSource(dims []*dimension.Dimension) *projSource {
	return &projSource{dims: dims, members: newMemberSets(dims)}
}

// seal fixes the members and the key space of a source read by some of
// a grid's cells — a dimension's radix is the product of the member
// counts of the dimensions after it — and reports whether every key
// fits an int.
func (s *projSource) seal(cells int) bool {
	s.radix = make([]int, len(s.dims))
	space := 1
	for d := len(s.dims) - 1; d >= 0; d-- {
		s.radix[d] = space
		hi, lo := bits.Mul64(uint64(space), uint64(s.members[d].seal()))
		if hi != 0 || lo > math.MaxInt {
			return false
		}
		space = int(lo)
	}
	if space > 4*cells+4096 {
		s.sparse = make(map[int]int32)
		return true
	}
	s.byKey = make([]int32, space)
	for k := range s.byKey {
		s.byKey[k] = -1
	}
	return true
}

// memberSet is a set of one dimension's member IDs with a rank
// directory, so that a member's slot is one popcount away.
type memberSet struct {
	words []uint64
	// rank[w] counts the members in words before w.
	rank []int32
}

// newMemberSets returns an empty memberSet for each of dims.
func newMemberSets(dims []*dimension.Dimension) []memberSet {
	sets := make([]memberSet, len(dims))
	for d, dim := range dims {
		sets[d].words = make([]uint64, (dim.NumMembers()+63)/64)
	}
	return sets
}

// add puts id in the set.
func (m *memberSet) add(id dimension.MemberID) { m.words[id>>6] |= 1 << (id & 63) }

// seal builds the rank directory and returns the member count.
func (m *memberSet) seal() int {
	m.rank = make([]int32, len(m.words))
	n := 0
	for w, word := range m.words {
		m.rank[w] = int32(n)
		n += bits.OnesCount64(word)
	}
	return n
}

// slot returns id's slot, and whether the set holds id at all.
func (m *memberSet) slot(id dimension.MemberID) (int, bool) {
	w, bit := id>>6, uint64(1)<<(id&63)
	return int(m.rank[w]) + bits.OnesCount64(m.words[w]&(bit-1)), m.words[w]&bit != 0
}

// all reports whether ok holds for every member, in ID order.
func (m *memberSet) all(ok func(id dimension.MemberID) bool) bool {
	for w, word := range m.words {
		for ; word != 0; word &= word - 1 {
			if !ok(dimension.MemberID(w<<6 + bits.TrailingZeros64(word))) {
				return false
			}
		}
	}
	return true
}

func (s *projSource) accOf(key int) int32 {
	if s.sparse == nil {
		return s.byKey[key]
	}
	if a, ok := s.sparse[key]; ok {
		return a
	}
	return -1
}

func (s *projSource) setAcc(key int, a int32) {
	if s.sparse == nil {
		s.byKey[key] = a
	} else {
		s.sparse[key] = a
	}
}

// leafEntry is one (leaf, grid member) pair of a dimension's leaf
// table: the leaf's ordinal in the decoder's geometry, its offset
// contribution inside a chunk ((ord mod edge) × the dimension's offset
// stride) and the member's key contribution (its slot × radix).
type leafEntry struct {
	ord, off int32
	key      int
}

// digitTable is one dimension's share of decoding a chunk, for the chunk
// coordinate it was cut for: the dimension's leaf-table entries whose
// leaves lie in that chunk row, in ordinal order. When a chunk is
// decoded cell by cell, start indexes them by in-chunk digit: digit j's
// entries are e[start[j]:start[j+1]] (for coordinate indexed).
type digitTable struct {
	coord, indexed int
	e              []leafEntry
	start          []int32
}

// index builds start for the table's coordinate, if it is not built.
func (t *digitTable) index(edge int) {
	if t.indexed == t.coord {
		return
	}
	t.indexed, t.start = t.coord, t.start[:0]
	i, base := 0, int32(t.coord*edge)
	for j := int32(0); j <= int32(edge); j++ {
		for i < len(t.e) && t.e[i].ord < base+j {
			i++
		}
		t.start = append(t.start, int32(i))
	}
}

// decoder decodes one geometry's chunks for one source with per-
// dimension digit tables, the way the slab kernel decodes with strides:
// an offset's digit in dimension d is off / stride[d] % edge[d], and a
// cell's key the sum of its digits' key contributions — no address is
// ever recomposed.
type decoder struct {
	p            *projection
	src          *projSource
	g            *chunk.Geometry
	edge, stride []int
	// leaves[d] is dimension d's leaf table, compiled once per query by
	// cover: an entry per leaf the source reads under each of its members
	// (a leaf feeds its own member and every ancestor among them), in
	// (ordinal, key) order. Chunk coordinate c's digit table is its range
	// [cstart[d][c], cstart[d][c+1]).
	leaves [][]leafEntry
	cstart [][]int32
	tables []digitTable
	// vi, when non-negative, is the varying dimension of a decoder
	// reading the base's rows for the view: a scoped row is the overlay's
	// and skipped.
	vi     int
	scoped []bool
	// filters are the dimensions whose chunk coordinates hold no leaf the
	// source reads somewhere (cover): a chunk they rule out is not read.
	filters []chunkFilter
	// Per chunk: lists are the tables of the dimensions with more than
	// one contribution, off0/key0 the sums of the others' one each, and
	// pairs the number of (offset, key) combinations the chunk feeds.
	// decode are the dimensions foldCell decodes — all but those a chunk
	// spans one leaf of with one contribution, whose keys sum to key1 —
	// and multi its scratch: a cell's entry lists that hold more than one
	// key.
	lists      []*digitTable
	off0, key0 int
	pairs      int
	decode     []int
	key1       int
	multi      [][]leafEntry
	// covered is cover's scratch: the leaf ordinals under the source's
	// members of one dimension. slots are the slots of the source's
	// members at or above member above of dimension aboveDim, innermost
	// first: the path above the last leaf appendLeaf took.
	covered    []uint64
	slots      []int
	aboveDim   int
	above      dimension.MemberID
	ch         *chunk.Chunk
	cells      []float64
	foldCellFn func(off int, v float64) bool
}

func newDecoder(p *projection, src *projSource, g *chunk.Geometry) *decoder {
	n := g.NumDims()
	k := &decoder{p: p, src: src, g: g, edge: g.ChunkDims, stride: make([]int, n),
		leaves: make([][]leafEntry, n), cstart: make([][]int32, n), tables: make([]digitTable, n), vi: -1, aboveDim: -1}
	for d := range k.tables {
		k.stride[d] = g.OffsetStride(d)
		k.tables[d].coord, k.tables[d].indexed = -1, -1
	}
	k.foldCellFn = k.foldCell
	return k
}

// cover compiles the decoder's leaf tables, in the geometry's ordinals,
// and its chunk filters from those; it reports whether any chunk can
// hold a cell the source reads.
func (k *decoder) cover() bool {
	k.filters = k.filters[:0]
	for d := range k.src.members {
		if !k.coverDim(d) {
			return false
		}
		if k.g.ChunksPerDim(d) == 1 {
			continue
		}
		cs, edge := k.cstart[d], k.edge[d]
		nonEmpty := func(yield func(o int)) {
			for c := 0; c+1 < len(cs); c++ {
				if cs[c] < cs[c+1] {
					yield(c * edge)
				}
			}
		}
		if cf, cuts := newChunkFilter(k.g, d, nonEmpty); cuts {
			k.filters = append(k.filters, cf)
		}
	}
	return true
}

// coverDim builds dimension d's leaf table and its chunk starts, and
// reports whether the table has an entry. The leaves under the source's
// members are the union of their leaf ranges (Dimension.LeafRanges)
// less those the decoder does not read (geomOrdinal), and each member
// has an entry per such leaf in its ranges, which sizes the table
// exactly; each leaf, in ascending order, then takes its entries
// (appendLeaf).
func (k *decoder) coverDim(d int) bool {
	dim, set := k.src.dims[d], &k.src.members[d]
	words := (dim.NumLeaves() + 63) / 64
	if cap(k.covered) < words {
		k.covered = make([]uint64, words)
	}
	covered := k.covered[:words]
	clear(covered)
	set.all(func(m dimension.MemberID) bool {
		dim.LeafRanges(m, func(lo, hi int) {
			for o := lo; o < hi; o++ {
				covered[o>>6] |= 1 << (o & 63)
			}
		})
		return true
	})
	for w, word := range covered {
		for ; word != 0; word &= word - 1 {
			if o := w<<6 + bits.TrailingZeros64(word); k.geomOrdinal(d, o) < 0 {
				covered[w] &^= 1 << (o & 63)
			}
		}
	}
	size := 0
	set.all(func(m dimension.MemberID) bool {
		dim.LeafRanges(m, func(lo, hi int) { size += onesIn(covered, lo, hi) })
		return true
	})
	tab := make([]leafEntry, 0, size)
	for w, word := range covered {
		for ; word != 0; word &= word - 1 {
			tab = k.appendLeaf(tab, d, w<<6+bits.TrailingZeros64(word))
		}
	}
	k.leaves[d] = tab
	cs, edge := make([]int32, k.g.ChunksPerDim(d)+1), k.edge[d]
	i := 0
	for c := range cs {
		for i < len(tab) && int(tab[i].ord) < c*edge {
			i++
		}
		cs[c] = int32(i)
	}
	k.cstart[d] = cs
	return len(tab) > 0
}

// onesIn counts the ordinals of [lo, hi) in the bit set words.
func onesIn(words []uint64, lo, hi int) int {
	n := 0
	for lo < hi {
		b := lo & 63
		span := min(64-b, hi-lo)
		word := words[lo>>6] >> b
		if span < 64 {
			word &= 1<<span - 1
		}
		n += bits.OnesCount64(word)
		lo += span
	}
	return n
}

// appendLeaf appends to tab the entries of leaf ordinal o of dimension
// d: one per source member on the leaf's path, outermost first — a
// member's ID, and so its slot and key, is above its ancestors'. The
// members above the leaf are found walking up from its parent, unless
// the last leaf appended had the same parent.
func (k *decoder) appendLeaf(tab []leafEntry, d, o int) []leafEntry {
	dim, set, radix := k.src.dims[d], &k.src.members[d], k.src.radix[d]
	leaf := dim.Leaf(o)
	if d != k.aboveDim || leaf.Parent != k.above {
		k.aboveDim, k.above, k.slots = d, leaf.Parent, k.slots[:0]
		for id := leaf.Parent; id != dimension.None; id = dim.Member(id).Parent {
			if slot, ok := set.slot(id); ok {
				k.slots = append(k.slots, slot)
			}
		}
	}
	e := leafEntry{ord: int32(o), off: int32(o % k.edge[d] * k.stride[d])}
	for i := len(k.slots) - 1; i >= 0; i-- {
		e.key = k.slots[i] * radix
		tab = append(tab, e)
	}
	if slot, ok := set.slot(leaf.ID); ok {
		e.key = slot * radix
		tab = append(tab, e)
	}
	return tab
}

// leafEntries appends to e the leaf-table entries of leaf ordinal o of
// dimension d, as cover lays them out, without searching the table.
func (k *decoder) leafEntries(d, o int, e []leafEntry) []leafEntry {
	if k.geomOrdinal(d, o) < 0 {
		return e
	}
	return k.appendLeaf(e, d, o)
}

// geomOrdinal returns the source's leaf ordinal o of dimension d, or -1
// when the decoder does not read it: a scoped row, or an ordinal past
// the geometry's extent — a positive scenario's hypothetical instance,
// which the base lacks.
func (k *decoder) geomOrdinal(d, o int) int {
	if d == k.vi && k.scoped[o] || o >= k.g.Extents[d] {
		return -1
	}
	return o
}

// covers reports whether chunk id passes the decoder's filters.
func (k *decoder) covers(id int) bool {
	for _, f := range k.filters {
		if !f.on[id/f.idStride%f.n] {
			return false
		}
	}
	return true
}

// begin positions the decoder on the chunk at ccoord and reports
// whether any of its cells feeds the grid.
func (k *decoder) begin(ccoord []int) bool {
	k.lists, k.off0, k.key0, k.pairs = k.lists[:0], 0, 0, 1
	k.decode, k.key1 = k.decode[:0], 0
	for d, c := range ccoord {
		t := &k.tables[d]
		if t.coord != c {
			t.coord, t.e = c, k.chunkRow(d, c)
		}
		switch len(t.e) {
		case 0:
			return false
		case 1:
			k.off0 += int(t.e[0].off)
			k.key0 += t.e[0].key
		default:
			k.lists = append(k.lists, t)
			k.pairs *= len(t.e)
		}
		if len(t.e) == 1 && k.edge[d] == 1 {
			k.key1 += t.e[0].key
		} else {
			k.decode = append(k.decode, d)
		}
	}
	return true
}

// chunkRow returns dimension d's leaf-table entries in chunk coordinate c.
func (k *decoder) chunkRow(d, c int) []leafEntry {
	cs := k.cstart[d]
	return k.leaves[d][cs[c]:cs[c+1]]
}

// fold folds the chunk begin positioned on. A dense chunk, or one
// holding more cells than the grid's combinations in it, is visited at
// those combinations' offsets; a sparse or run-encoded one with fewer
// cells is iterated and each cell decoded.
func (k *decoder) fold(ch *chunk.Chunk) {
	k.ch, k.cells = ch, ch.DenseCells()
	if k.cells != nil || k.pairs <= ch.Len() {
		k.walk(0, k.off0, k.key0)
	} else {
		for _, d := range k.decode {
			k.tables[d].index(k.edge[d])
		}
		ch.ForEach(k.foldCellFn)
	}
	k.ch, k.cells = nil, nil
}

// walk visits the offsets of the combinations of lists[l:] on top of
// off and key.
func (k *decoder) walk(l, off, key int) {
	if l == len(k.lists) {
		if v := k.get(off); v == v {
			k.p.fold(k.src.accOf(key), v, 1)
		}
		return
	}
	t := k.lists[l]
	if l < len(k.lists)-1 {
		for _, e := range t.e {
			k.walk(l+1, off+int(e.off), key+e.key)
		}
		return
	}
	for _, e := range t.e {
		if v := k.get(off + int(e.off)); v == v {
			k.p.fold(k.src.accOf(key+e.key), v, 1)
		}
	}
}

func (k *decoder) get(off int) float64 {
	if k.cells != nil {
		return k.cells[off]
	}
	return k.ch.Get(off)
}

// foldCell decodes one cell of the chunk and folds it into every grid
// cell it feeds.
func (k *decoder) foldCell(off int, v float64) bool {
	key := k.key1
	k.multi = k.multi[:0]
	for _, d := range k.decode {
		t := &k.tables[d]
		j := off / k.stride[d] % k.edge[d]
		switch e := t.e[t.start[j]:t.start[j+1]]; len(e) {
		case 0:
			return true
		case 1:
			key += e[0].key
		default:
			k.multi = append(k.multi, e)
		}
	}
	k.foldAll(0, key, v, 1)
	return true
}

// foldAll folds n cells holding v under key plus every combination of
// one entry from each of multi[i:].
func (k *decoder) foldAll(i, key int, v float64, n int) {
	if i == len(k.multi) {
		k.p.fold(k.src.accOf(key), v, n)
		return
	}
	for _, e := range k.multi[i] {
		k.foldAll(i+1, key+e.key, v, n)
	}
}

// fuser is the slab kernel's fold sink: it folds the cells a scan
// relocates straight into the accumulators of the grid cells they feed,
// so a query whose grid compiled builds no overlay. Roll-up commutes
// with a relocation that keeps a cell under its ancestors, so a
// destination cell's grid cells follow from its destination leaves
// alone: the varying dimension's from the destination ordinal (its
// range of the view decoder's leaf table), every other
// dimension's from the source offset's digits, which relocation leaves
// as they are. A slab shares its varying and parameter digits and every
// digit slower than it, so their share of the key is decided once per
// slab; the digits faster than it depend only on the position in the
// slab, so their share is one table per chunk. The same tables are the
// scan's cell filter: a slab none of whose cells feeds a grid cell is
// dead (slabAt), and of a live one only the positions whose faster
// digits feed one (live) are folded.
type fuser struct {
	p *projection
	// d is the view source's decoder over the view's geometry, whose leaf
	// tables the fuser reads; nil when no view cell can be fed (every
	// relocated cell is dropped).
	d    *decoder
	vi   int
	slab int
	// varE are the varying leaf-table entries of destination ordinal
	// varDst: one per view member on the destination leaf's path, found
	// walking up from the leaf when the destination changes.
	varDst int
	varE   []leafEntry
	// Per source chunk (begin): slow and fast are the dimensions other
	// than the varying one that need decoding, split by whether a slab
	// holds their digit constant; key1 sums the contributions of those
	// that need none; off marks a chunk no cell of which feeds the grid.
	slow, fast []int
	key1       int
	off        bool
	// localKeys[localStart[r]:localStart[r+1]] are the key contributions
	// of the fast digits at slab position r: one per combination of an
	// entry from each fast dimension, none where a digit feeds no grid
	// cell. live are the runs of positions that have some: the cells of a
	// slab the scan folds. Rebuilt when a chunk changes a fast dimension's
	// table; empty localStart means not built.
	localKeys  []int
	localStart []int32
	live       []liveRun
	// Per slab (slabAt): the slab's first offset and the destination
	// ordinal it was decided for, its key, and combo the contributions of
	// its dimensions with more than one entry, one per combination; dead
	// marks a slab no cell of which feeds the grid.
	at, dst, key int
	combo        []int
	dead         bool
}

// newFuser returns the fold sink for projection p of view v, whose
// scan writes in geometry og. Every cell of p must compile, and the
// plan's footprint must be p's own (projection.footprint), so that every
// leaf the view cells read was relocated.
func newFuser(v *View, p *projection, og *chunk.Geometry) *fuser {
	f := &fuser{p: p, vi: v.engine.vi, varDst: -1}
	if p.view != nil {
		if d := newDecoder(p, p.view, og); d.cover() {
			f.d = d
		}
	}
	return f
}

// begin positions the fuser on the source chunk at ccoord.
func (f *fuser) begin(ccoord []int) {
	f.slow, f.fast, f.key1, f.at = f.slow[:0], f.fast[:0], 0, -1
	if f.off = f.d == nil; f.off {
		return
	}
	d := f.d
	moved := len(f.localStart) == 0
	for dim, c := range ccoord {
		if dim == f.vi {
			continue
		}
		t := &d.tables[dim]
		if t.coord != c {
			t.coord, t.e = c, d.chunkRow(dim, c)
			moved = true
		}
		switch {
		case len(t.e) == 0:
			f.off = true
			if moved {
				f.localStart = f.localStart[:0] // built for tables this chunk changed
			}
			return
		case len(t.e) == 1 && d.edge[dim] == 1:
			f.key1 += t.e[0].key
		default:
			t.index(d.edge[dim])
			if d.stride[dim] >= f.slab {
				f.slow = append(f.slow, dim)
			} else {
				f.fast = append(f.fast, dim)
			}
		}
	}
	if moved {
		f.localKeys, f.localStart, f.live = f.localKeys[:0], append(f.localStart[:0], 0), f.live[:0]
		for r := 0; r < f.slab; r++ {
			if key, ok := f.keyOf(f.fast, 0, r); ok {
				f.localKeys = f.expand(f.localKeys, 0, key)
				if n := len(f.live); n > 0 && f.live[n-1].hi == r {
					f.live[n-1].hi++
				} else {
					f.live = append(f.live, liveRun{r, r + 1})
				}
			}
			f.localStart = append(f.localStart, int32(len(f.localKeys)))
		}
	}
}

// liveRun is a run [lo, hi) of slab positions.
type liveRun struct{ lo, hi int }

// keyOf adds to key the contributions of dims' digits at offset off of
// the current chunk, leaving the dimensions with several in the
// decoder's multi; false means a digit feeds no grid cell.
func (f *fuser) keyOf(dims []int, key, off int) (int, bool) {
	f.d.multi = f.d.multi[:0]
	for _, dim := range dims {
		t := &f.d.tables[dim]
		j := off / f.d.stride[dim] % f.d.edge[dim]
		if !f.add(&key, t.e[t.start[j]:t.start[j+1]]) {
			return 0, false
		}
	}
	return key, true
}

// add adds a dimension's entries to the key being built: one adds its
// contribution, several are a multi list; none reports that the cell
// feeds no grid cell.
func (f *fuser) add(key *int, e []leafEntry) bool {
	switch len(e) {
	case 0:
		return false
	case 1:
		*key += e[0].key
	default:
		f.d.multi = append(f.d.multi, e)
	}
	return true
}

// expand appends key plus every combination of one entry from each of
// the decoder's multi[i:] to keys.
func (f *fuser) expand(keys []int, i, key int) []int {
	if i == len(f.d.multi) {
		return append(keys, key)
	}
	for _, e := range f.d.multi[i] {
		keys = f.expand(keys, i+1, key+e.key)
	}
	return keys
}

// slabAt decides the slab at source offset slab, whose cells land on
// destination ordinal dst, and reports whether any of its cells can feed
// the grid.
func (f *fuser) slabAt(dst, slab int) bool {
	if f.off {
		return false
	}
	if slab != f.at || dst != f.dst {
		f.at, f.dst, f.combo = slab, dst, f.combo[:0]
		if dst != f.varDst {
			f.varDst, f.varE = dst, f.d.leafEntries(f.vi, dst, f.varE[:0])
		}
		var ok bool
		if f.key, ok = f.keyOf(f.slow, f.key1, slab); ok {
			ok = f.add(&f.key, f.varE)
		}
		if f.dead = !ok; ok {
			f.combo = f.expand(f.combo, 0, 0)
		}
	}
	return !f.dead
}

// fold folds n cells holding v at slab position r into every grid cell
// they feed.
func (f *fuser) fold(r int, v float64, n int) {
	for _, k := range f.localKeys[f.localStart[r]:f.localStart[r+1]] {
		for _, c := range f.combo {
			f.p.fold(f.d.src.accOf(f.key+k+c), v, n)
		}
	}
}

// relocate folds the cells at source offsets [lo, hi) of the slab at
// offset at, relocated to destination ordinal dst — cells[i] is the one
// at lo+i or, cells nil, every one holds v — and returns how many cells
// it folded that are not Null: none of a dead slab, else those of its
// live runs.
func (f *fuser) relocate(dst, at, lo, hi int, cells []float64, v float64) int {
	if !f.slabAt(dst, at) {
		return 0
	}
	n := 0
	for _, r := range f.live {
		a, b := max(at+r.lo, lo), min(at+r.hi, hi)
		switch {
		case a >= b:
		case cells == nil:
			f.run(a-at, b-a, v)
			n += b - a
		default:
			for i, c := range cells[a-lo : b-lo] {
				if c == c {
					f.fold(a-at+i, c, 1)
					n++
				}
			}
		}
	}
	return n
}

// run folds n cells holding v at positions r, r+1, … of the slab slabAt
// decided. Consecutive cells feeding the same grid cells fold as one
// fold of that many equal cells.
func (f *fuser) run(r, n int, v float64) {
	local := func(r int) []int { return f.localKeys[f.localStart[r]:f.localStart[r+1]] }
	for i := 0; i < n; {
		j := i + 1
		for j < n && slices.Equal(local(r+j), local(r+i)) {
			j++
		}
		f.fold(r+i, v, j-i)
		i = j
	}
}
