package core

import (
	"context"
	"math"
	"time"

	"whatifolap/internal/chunk"
	"whatifolap/internal/trace"
)

// This file is a query hot path: span recording happens here, span
// formatting must not (no fmt import — verify.sh enforces it).

// readTally counts a scan's chunk reads (chunkReader).
type readTally struct {
	chunksRead  int
	spillFaults int
	faultMs     float64 // wall time of those faults: tier read + decode
}

// addReads adds a scan's chunk reads to the stats.
func (s *Stats) addReads(t readTally) {
	s.ChunksRead += t.chunksRead
	s.SpillFaults += t.spillFaults
	s.FaultMs += t.faultMs
}

// chunkReader is the chunk-read step of a query's one chunk loop
// (scanInto): a read through the buffer pool, whose fault sums into the
// tally and becomes a "fault" span under parent — recorded in hindsight
// via tr.Now()/tr.Record, so a pool hit costs no span slot (and, with
// tracing off, nothing at all) — then, under a scenario, the layer
// chain's resolve into one reused dense chunk. A caller may act between
// the two (the scan pins).
//
// Reads are leased: the chunk read last stays the scan's, its frame
// out of reuse, until the next read gives it back — the scan folds
// each chunk before reading the next — and the scan releases the lease
// on every exit.
type chunkReader struct {
	readTally
	e        *Engine
	lease    *chunk.Lease
	tr       *trace.Trace
	parent   trace.SpanRef
	resolved *chunk.Chunk
}

// read reads chunk id from the store, giving back the chunk read
// before. A read the tier fails returns its *chunk.ReadError, which
// names the chunk and the segment.
func (r *chunkReader) read(id int) (*chunk.Chunk, error) {
	readStart := r.tr.Now()
	ch, info, err := r.lease.Read(id)
	if err != nil {
		return nil, err
	}
	r.chunksRead++
	if info.Faulted {
		r.spillFaults++
		r.faultMs += info.FaultMs
		sp := r.tr.Record(r.parent, "fault", readStart, r.tr.Now())
		sp.Int("chunk", int64(id))
		sp.IntNonZero("evictions", int64(info.Evictions))
		if info.Pinned {
			sp.Int("pinned", 1)
		}
	}
	return ch, nil
}

// resolve returns chunk id as the query sees it: ch as read or, under a
// layer chain, resolved with the layers' edits (chunks only a layer
// holds resolve from nothing) into one dense frame off the free list. A
// resolved chunk is good until the next resolve, and the frame until
// release.
func (r *chunkReader) resolve(id int, ch *chunk.Chunk) *chunk.Chunk {
	if r.e.chain == nil {
		return ch
	}
	if r.resolved == nil {
		r.resolved = chunk.NewDenseFrame(r.e.store.Geometry().ChunkCap())
	}
	return r.e.chain.Resolve(id, ch, r.resolved)
}

// release hands the resolve frame back to the free list: the scan is
// over, and nothing it folded into keeps a chunk.
func (r *chunkReader) release() {
	if r.resolved != nil {
		r.resolved.Recycle()
		r.resolved = nil
	}
}

// scanTally accumulates the scan's counters.
type scanTally struct {
	readTally
	cellsScanned   int
	cellsRelocated int
	promotions     int
	// slabs counts the slab decisions the kernel made, slabsSkipped those
	// whose cells vanished (pruned source row or -1 destination);
	// cellsOffGrid the non-null cells of surviving slabs a fold fed to no
	// grid cell (counted only under a recording scan span).
	slabs, slabsSkipped, cellsOffGrid int
}

// planStages names the planning sub-stages whose end offsets a plan
// keeps in stageNs: the relocation tables and their pruning, the merge
// dependency graph, the read schedule, and the merge-group partition.
var planStages = [...]string{"plan.targets", "plan.graph", "plan.pebble", "plan.groups"}

// recordPlanSpan claims a hindsight "plan" span covering the planning
// stage with the plan's shape as attributes, and under it one child per
// sub-stage, so a slow plan names the step that was slow. A perspective
// plan (phi) also records phi_cached: 1 when Φ's relocation rows came
// from the binding's memo, 0 when Φ was evaluated; a changes plan
// evaluates no Φ and records neither. No-op with tracing off.
func recordPlanSpan(tr *trace.Trace, parent trace.SpanRef, startNs int64, p *PhysicalPlan, phi bool) {
	sp := tr.Record(parent, "plan", startNs, tr.Now())
	sp.Int("merge_groups", int64(len(p.Groups)))
	sp.Int("chunks", int64(len(p.Schedule)))
	sp.IntNonZero("merge_edges", int64(p.Stats.MergeEdges))
	sp.IntNonZero("pebbling_peak", int64(p.Stats.PeakResidentChunks))
	sp.IntNonZero("members_moved", int64(p.Stats.MembersMoved))
	sp.IntNonZero("footprint_cells", int64(p.footprintCells))
	sp.IntNonZero("chunks_pruned", int64(p.chunksPruned))
	if phi {
		cached := int64(0)
		if p.PhiCached {
			cached = 1
		}
		sp.Int("phi_cached", cached)
	}
	for i, name := range planStages {
		tr.Record(sp, name, startNs, p.stageNs[i])
		startNs = p.stageNs[i]
	}
}

// slabKernel is the engine's one relocation kernel. Relocation moves a
// cell only along the varying dimension, and where to depends on nothing
// but the cell's (varying instance, parameter leaf) pair. Inside a chunk
// both are digits of the row-major offset, and offset strides nest, so
// every aligned block of min(strideV, strideP) offsets — a slab — shares
// both digits and with them one fate. The kernel therefore walks a span
// of source offsets slab by slab: one relocation-table probe decides a
// slab, the destination (chunk ID, offset) follows from strides, and the
// slab's cells move in one write to the kernel's sink. Chunk.ForEachSpan
// feeds it every representation; a scenario chunk arrives resolved
// (Chain.Resolve).
//
// The sink is the overlay or, when the query's grid was compiled before
// the scan, a fold (fuser): the cells go straight into the accumulators
// of the grid cells they feed, and no overlay is built. The sink is the
// scan's only cell filter inside a chunk. A fold decides each slab
// (fuser.slabAt: dead when its slower digits or its destination feed no
// grid cell) and folds only its live runs, the slab positions whose
// faster digits feed one; an overlay takes every cell the table moves.
// A span carries either its cells (distinct values: a surviving slab is
// one Overlay.SetCellsAt, or one fuser.relocate) or one value (a run:
// into the overlay, slabs landing back to back in one destination chunk
// — consecutive months mapping to the same instance do — coalesce, so a
// stable member's whole validity window is one Overlay.SetRunAt; into a
// fold, each live run of a slab is one fuser.run). All state lives on the struct: the steady-state path
// allocates nothing per slab.
type slabKernel struct {
	target *RelocTable
	// Exactly one of overlay and fold is the sink.
	overlay *chunk.Overlay
	fold    *fuser
	vi, pi  int
	// dimV/dimP are the chunk edges, strideV/strideP the in-chunk
	// offset strides, of the varying and parameter dimensions; slab is
	// the smaller stride.
	dimV, dimP             int
	strideV, strideP, slab int
	// idStrideV is the canonical-ID stride along the varying dimension
	// in the overlay's (possibly extended) geometry.
	idStrideV int
	// scratch is ForEachSpan's slab buffer for sparse chunks.
	scratch []float64
	// Per-chunk state, set by beginChunk. rowOf is the relocation table's
	// index of the chunk's varying coordinate, row the relocation row of
	// varying digit digitV, which holds up to offset rowEnd: when the
	// varying digit is the slower one (the workforce layout) consecutive
	// slabs share it, and the digit is derived and the table probed once
	// per digit block, not once per slab. A nil row holds up to the next
	// block whose digit has a row (rowGap), or the chunk's end.
	rowOf          []int32
	baseP, idBase  int
	row            []int
	digitV, rowEnd int
	// Pending coalesced destination run.
	pendID, pendOff, pendLen int
	pendVal                  float64
	// moved counts cells written or folded, offGrid the non-null cells of
	// surviving slabs a fold fed to no grid cell — counted only when
	// countOff is set, because only a recording scan span reads it; slabs
	// and skipped count slab
	// decisions and those whose cells vanished (a run-encoded chunk
	// counts a slab once per run entering it). promBase is the overlay's
	// promotion count when the scan began.
	moved, offGrid, slabs, skipped, promBase int
	countOff                                 bool
}

// newSlabKernel builds the kernel over source geometry g for a sink in
// the view geometry og: overlay, or fold when it is non-nil.
func newSlabKernel(g, og *chunk.Geometry, overlay *chunk.Overlay, fold *fuser, target *RelocTable, vi, pi int) *slabKernel {
	k := &slabKernel{
		target:  target,
		overlay: overlay,
		fold:    fold,
		vi:      vi,
		pi:      pi,
		dimV:    g.ChunkDims[vi],
		dimP:    g.ChunkDims[pi],
		strideV: g.OffsetStride(vi),
		strideP: g.OffsetStride(pi),
		// Destination IDs live in the view's geometry: a positive
		// scenario extends the varying dimension, changing its chunk
		// count and therefore every ID stride above it.
		idStrideV: og.ChunkIDStride(vi),
	}
	k.slab = min(k.strideV, k.strideP)
	if fold != nil {
		fold.slab = k.slab
	} else {
		k.promBase = overlay.Promotions()
	}
	k.scratch = make([]float64, k.slab)
	for i := range k.scratch {
		k.scratch[i] = math.NaN()
	}
	return k
}

// beginChunk positions the kernel on a source chunk: ccoord is the
// chunk's coordinate in the source geometry and idBase the overlay-
// geometry canonical ID of the same coordinate with the varying
// coordinate zeroed (destination ID = idBase + dstChunkCoord·stride).
// ccoord is restored before returning.
func (k *slabKernel) beginChunk(og *chunk.Geometry, ccoord []int) {
	vc := ccoord[k.vi]
	k.rowOf = k.target.index[vc]
	k.baseP = ccoord[k.pi] * k.dimP
	ccoord[k.vi] = 0
	k.idBase = og.CanonicalID(ccoord)
	ccoord[k.vi] = vc
	k.rowEnd = 0
	if k.fold != nil {
		k.fold.begin(ccoord)
	}
}

// relocateSpan relocates the source offsets [start, start+n), one slab
// (or the part of one the span covers) per step: cells[i] is the cell at
// start+i, or cells is nil and every cell holds v. A slab vanishes when
// its source row was pruned — and then so does every other slab up to
// the next digit block whose varying digit has a row, skipped (and
// counted) as one stretch — when the row sends its parameter
// leaf to -1, or when that leaf lies past the parameter extent: a partial
// last chunk's padding, which a dense span covers too. A surviving slab
// moves what its sink takes: into an overlay every cell, into a fold
// the cells of its live runs, unless the fold declares it dead.
func (k *slabKernel) relocateSpan(start, n int, cells []float64, v float64) {
	for off, end := start, start+n; off < end; {
		if off >= k.rowEnd { // spans ascend, so this is the next digit block
			block := off / k.strideV
			k.digitV = block % k.dimV
			k.row = nil
			if k.rowOf != nil && k.rowOf[k.digitV] >= 0 {
				w := k.target.width
				k.row = k.target.rows[int(k.rowOf[k.digitV])*w:][:w]
				k.rowEnd = (block + 1) * k.strideV
			} else if gap := k.rowGap(); gap > 0 {
				k.rowEnd = (block + gap) * k.strideV
			} else {
				k.rowEnd = math.MaxInt
			}
		}
		if k.row == nil {
			segEnd := min(k.rowEnd, end)
			pruned := segEnd - off // one-cell slabs: the validity-window layout
			if k.slab > 1 {
				pruned = (segEnd-1)/k.slab - off/k.slab + 1
			}
			k.slabs += pruned
			k.skipped += pruned
			off = segEnd
			continue
		}
		segEnd := min(off-off%k.slab+k.slab, end)
		k.slabs++
		if pOrd := k.baseP + off/k.strideP%k.dimP; pOrd >= len(k.row) || k.row[pOrd] < 0 {
			k.skipped++
		} else {
			dst := k.row[pOrd]
			var span []float64
			if cells != nil {
				span = cells[off-start : segEnd-start]
			}
			if k.fold != nil {
				moved := k.fold.relocate(dst, off-off%k.slab, off, segEnd, span, v)
				k.moved += moved
				if k.countOff {
					k.offGrid += countNonNull(span, segEnd-off) - moved
				}
			} else {
				dstID := k.idBase + dst/k.dimV*k.idStrideV
				dstOff := off + (dst%k.dimV-k.digitV)*k.strideV // moved along the varying digit
				if span != nil {
					k.moved += k.overlay.SetCellsAt(dstID, dstOff, span)
				} else {
					k.moveRun(dstID, dstOff, segEnd-off, v)
					k.moved += segEnd - off
				}
			}
		}
		off = segEnd
	}
}

// rowGap returns how many digit blocks on from the one of varying digit
// digitV the next block whose digit has a relocation row begins — the
// digits repeat when the varying dimension is not the slowest — or 0
// when no digit of the chunk has one.
func (k *slabKernel) rowGap() int {
	if k.rowOf == nil {
		return 0
	}
	for d := k.digitV + 1; d < k.dimV; d++ {
		if k.rowOf[d] >= 0 {
			return d - k.digitV
		}
	}
	for d := 0; d <= k.digitV; d++ {
		if k.rowOf[d] >= 0 {
			return d + k.dimV - k.digitV
		}
	}
	return 0
}

// countNonNull counts the cells of a span of n that are not Null: all n
// of a run's (cells nil).
func countNonNull(cells []float64, n int) int {
	if cells == nil {
		return n
	}
	n = 0
	for _, c := range cells {
		if c == c {
			n++
		}
	}
	return n
}

// moveRun queues one destination run segment, coalescing with the
// pending one when it carries the same value and lands directly after it
// in the same destination chunk. Value equality is on bit patterns,
// matching run encoding.
func (k *slabKernel) moveRun(dstID, dstOff, segLen int, v float64) {
	if k.pendLen > 0 && dstID == k.pendID && dstOff == k.pendOff+k.pendLen &&
		math.Float64bits(v) == math.Float64bits(k.pendVal) {
		k.pendLen += segLen
		return
	}
	k.flush()
	k.pendID, k.pendOff, k.pendLen, k.pendVal = dstID, dstOff, segLen, v
}

// flush writes the pending destination run, if any.
func (k *slabKernel) flush() {
	if k.pendLen > 0 {
		k.overlay.SetRunAt(k.pendID, k.pendOff, k.pendLen, k.pendVal)
		k.pendLen = 0
	}
}

// finish flushes and adds the kernel's counters to the tally.
func (k *slabKernel) finish(t *scanTally) {
	t.cellsRelocated += k.moved
	t.slabs += k.slabs
	t.slabsSkipped += k.skipped
	t.cellsOffGrid += k.offGrid
	if k.fold != nil {
		return
	}
	k.flush()
	t.promotions += k.overlay.Promotions() - k.promBase
}

// annotateScan attaches a tally's counters to the scan span. A no-op
// ref (tracing off) makes every call free.
func annotateScan(sp trace.SpanRef, t scanTally) {
	sp.Int("chunks_read", int64(t.chunksRead))
	sp.Int("cells_scanned", int64(t.cellsScanned))
	sp.Int("cells_relocated", int64(t.cellsRelocated))
	sp.IntNonZero("slabs", int64(t.slabs))
	sp.IntNonZero("slabs_skipped", int64(t.slabsSkipped))
	sp.IntNonZero("cells_off_grid", int64(t.cellsOffGrid))
	sp.IntNonZero("spill_faults", int64(t.spillFaults))
	sp.IntNonZero("fault_us", int64(t.faultMs*1000))
	sp.IntNonZero("overlay_promotions", int64(t.promotions))
}

// gridProjection is a grid the caller projects the executed view over,
// and where: compile compiles it into proj before planning, and execute
// fills out and stats after the scan (ExecPerspectiveProjected).
type gridProjection struct {
	grid  Grid
	out   [][]float64
	proj  *projection
	stats ProjectStats
}

// compile compiles the grid over the schema of view — the query's
// result cube, known before any chunk is read — and returns the
// footprint the plan relocates (projection.footprint). A nil gp compiles
// nothing and plans under no footprint, so the view is complete.
func (gp *gridProjection) compile(view *View) Footprint {
	if gp == nil {
		return nil
	}
	gp.proj = compileProjection(view.input, view.result, view.mode, gp.grid)
	return gp.proj.footprint(view.result)
}

// recordCompile claims a hindsight "compile" span under ec's current span
// from start to now — the result cube's schema and gp's compile, which
// run before planning — and returns now, where the "plan" span starts,
// so plan.targets times the relocation table alone. A nil gp records
// nothing.
func (gp *gridProjection) recordCompile(ec ExecContext, start int64) int64 {
	tr := trace.FromContext(ec.Ctx)
	now := tr.Now()
	if gp != nil {
		tr.Record(trace.SpanFromContext(ec.Ctx), "compile", start, now)
	}
	return now
}

// execute runs the staged execution of physical plan p for view, the
// query's assembled result cube, and leaves its statistics in
// view.Stats:
//
//	assemble wiring the plan's scope into the view and the scan's sinks:
//	         the grid's accumulators when gp's projection compiled every
//	         cell, else a chunk-grained overlay; and, given a grid, its
//	         base fold (projection.baseFold), which adds to the
//	         schedule the chunks the grid reads outside the relocated
//	         rows;
//	scan     one loop over the plan's schedule, then those base-only
//	         chunks, reading each chunk once (scanInto): relocation a
//	         slab at a time (slabKernel: one table probe and one bulk
//	         write per block of cells sharing their varying and parameter
//	         digits, whatever the chunk's representation) into the sink,
//	         and the base fold's cells from the same read. On the calling
//	         goroutine, so the resident chunk count is the pebbling peak
//	         EXPLAIN prints;
//	project  given a grid, its cells into gp.out: the accumulators, the
//	         overlay's cells when the scan did not fuse, and the cells
//	         that fall back (projectInto).
//
// The view keeps no overlay when the scan fused: only the projected
// entry points, which hand out no view, pass gp. A positive scenario's
// view extends the varying dimension past the base's extent.
func (e *Engine) execute(ec ExecContext, p *PhysicalPlan, view *View, gp *gridProjection) error {
	stats := &view.Stats
	*stats = p.Stats

	// The overlay's geometry matches the base store's, except that a
	// positive scenario extends the varying dimension with hypothetical
	// instances whose ordinals lie beyond the base extent.
	og := e.store.Geometry()
	if n := view.result.Dim(e.vi).NumLeaves(); n > og.Extents[e.vi] {
		ext := make([]int, len(og.Extents))
		copy(ext, og.Extents)
		ext[e.vi] = n
		var err error
		if og, err = chunk.NewGeometry(ext, og.ChunkDims); err != nil {
			return err
		}
	}

	tr := trace.FromContext(ec.Ctx)
	parent := trace.SpanFromContext(ec.Ctx)

	// Out-of-scope rows read from the layer chain when the engine runs
	// over a scenario, so unrelocated cells reflect scenario edits too.
	assembleSp := tr.Start(parent, "assemble")
	vs := view.result.Store().(*viewStore)
	vs.scoped, view.sourceIDs = p.Scoped, p.sourceIDs
	var fold *fuser
	if gp != nil && gp.proj.stats.Fallback == 0 {
		fold = newFuser(view, gp.proj, og)
	} else {
		vs.overlay = chunk.NewOverlay(og)
	}
	var base *baseFold
	if gp != nil {
		base = gp.proj.baseFold(e, p)
	}
	assembleSp.IntNonZero("base_chunks", int64(len(p.BaseChunks)))
	assembleSp.End()

	scanSp := tr.Start(parent, "scan")
	scanStart := time.Now()
	scanT, err := e.scanInto(ec.Ctx, p, vs.overlay, fold, base, tr, scanSp)
	stats.addReads(scanT.readTally)
	if err != nil {
		scanSp.End()
		return err
	}
	stats.ScanMs = msSince(scanStart)
	annotateScan(scanSp, scanT)
	scanSp.End()
	stats.CellsScanned += scanT.cellsScanned
	stats.CellsRelocated += scanT.cellsRelocated

	if gp != nil {
		projStart := time.Now()
		gp.proj.stats.ChunksRead = len(p.BaseChunks)
		if err := e.projectInto(ec, view, gp, fold != nil); err != nil {
			return err
		}
		stats.ProjectMs = msSince(projStart)
	}
	return nil
}

// projectInto is execute's project stage, a "project" span under ec's
// current span: gp's projection of view v's grid into gp.out — its
// accumulators already holding the scan's folds, of the scoped cells too
// when it fused — plus the overlay's cells when it did not, and the
// cells that fall back (projection.foldOverlay, emit).
func (e *Engine) projectInto(ec ExecContext, v *View, gp *gridProjection, fused bool) error {
	tr := trace.FromContext(ec.Ctx)
	sp := tr.Start(trace.SpanFromContext(ec.Ctx), "project")
	defer sp.End()
	pec := ec
	pec.Ctx = trace.WithSpan(ec.Ctx, sp)
	proj := gp.proj
	proj.stats.Fused = fused
	err := proj.foldOverlay(pec, v.result.Store().(*viewStore).overlay)
	if err == nil {
		err = proj.emit(pec, v, gp.grid, gp.out)
	}
	gp.stats = proj.stats
	sp.Int("cells_compiled", int64(gp.stats.Compiled))
	sp.IntNonZero("cells_fallback", int64(gp.stats.Fallback))
	sp.Int("cells_folded", int64(gp.stats.Folded))
	return err
}

// pinTracker enforces the executor side of the pebbling objective on a
// pooled store: a scanned chunk stays pinned while any of its merge-
// dependency partners (plan.Neighbors) is still unscanned, so another
// query's fault-ins cannot evict it before the exchange completes; it
// is released the moment its last partner is read. On an unpooled
// store (Pin is a no-op) the tracker is not built at all.
type pinTracker struct {
	store *chunk.Store
	plan  *PhysicalPlan
	// done is how much of the plan's schedule has been scanned.
	done int
	// outstanding counts, per plan node, its partners later in the
	// schedule that have not been scanned yet: a scanned chunk is pinned
	// exactly while its count is positive.
	outstanding []int32
}

// newPinTracker tracks the plan's global schedule, whose order the
// plan's slots give between every chunk and its partners.
func newPinTracker(store *chunk.Store, p *PhysicalPlan) *pinTracker {
	pt := &pinTracker{store: store, plan: p, outstanding: make([]int32, len(p.nodes))}
	for _, id := range p.Schedule {
		i, _ := p.graph.Index(id)
		for _, nb := range p.graph.Adjacent(i) {
			if p.slot[nb] > p.slot[i] {
				pt.outstanding[i]++
			}
		}
	}
	return pt
}

// scanned records that id, next in the schedule, was just read: pin it
// when partners are still ahead, and release earlier partners this read
// satisfies.
func (pt *pinTracker) scanned(id int) {
	p := pt.plan
	pt.done++
	i, _ := p.graph.Index(id)
	if pt.outstanding[i] > 0 {
		//lint:pairok pins intentionally outlive scanned(): partner reads release them as outstanding counts drain, and the deferred releaseAll sweeps stragglers
		pt.store.Pin(id)
	}
	for _, nb := range p.graph.Adjacent(i) {
		if p.slot[nb] < p.slot[i] {
			if pt.outstanding[nb]--; pt.outstanding[nb] == 0 {
				pt.store.Unpin(p.nodes[nb])
			}
		}
	}
}

// releaseAll unpins whatever is still pinned — a no-op after a complete
// scan, the safety net on error and cancellation paths.
func (pt *pinTracker) releaseAll() {
	for _, id := range pt.plan.Schedule[:pt.done] {
		if i, _ := pt.plan.graph.Index(id); pt.outstanding[i] > 0 {
			pt.outstanding[i] = 0
			pt.store.Unpin(id)
		}
	}
}

// scanInto is a query's one chunk loop: it reads the plan's scheduled
// chunks in order, then its base-only chunks (p.BaseChunks: ascending
// IDs, no merge edges, no pins), each once. A scheduled chunk goes to the slab kernel,
// which relocates its scoped slabs through the plan's target tables
// into its sink — the overlay, or the grid's accumulators when fold is
// non-nil — one loop body for every chunk representation and for
// scenario chunks, which the layer chain first resolves (chunkReader;
// the planner scheduled chunks only a layer holds from the chain's
// chunk-ID union). From the same read base, when non-nil, folds the
// cells of the view's unscoped rows and of the input the grid reads.
// Cells scanned are the non-null cells the scheduled chunks hold
// (Chunk.Len, the resolved count under a chain), whether or not a slab
// decision ever looked at them. The context, when non-nil, is checked
// before every chunk read. The plan is only read, so concurrent queries
// may share it; View.Project runs the loop on an empty one.
//
// Reads go through chunkReader, whose faults become "fault" spans
// under parent. A read the tier fails ends the scan with its
// *chunk.ReadError; pins taken so far and the lease are released.
func (e *Engine) scanInto(ctx context.Context, p *PhysicalPlan, overlay *chunk.Overlay, fold *fuser, base *baseFold,
	tr *trace.Trace, parent trace.SpanRef) (scanTally, error) {

	var tally scanTally
	g := e.store.Geometry()
	og := g // a fold needs no destination chunk IDs
	if overlay != nil {
		og = overlay.Geometry()
	}
	ccoord := make([]int, g.NumDims())
	var k *slabKernel
	if len(p.Schedule) > 0 {
		k = newSlabKernel(g, og, overlay, fold, p.Target, e.vi, e.pi)
		k.countOff = parent.Valid()
	}
	visit := len(p.Schedule) + len(p.BaseChunks)
	lease := e.store.Lease()
	defer lease.Release()
	r := &chunkReader{e: e, lease: &lease, tr: tr, parent: parent}
	defer r.release()

	var pins *pinTracker
	if e.store.Pooled() && p.Stats.MergeEdges > 0 {
		pins = newPinTracker(e.store, p)
		defer pins.releaseAll()
	}

	var err error
	for i := 0; i < visit; i++ {
		scheduled := i < len(p.Schedule)
		var id int
		if scheduled {
			id = p.Schedule[i]
		} else {
			id = p.BaseChunks[i-len(p.Schedule)]
		}
		if ctx != nil {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		g.CoordOf(id, ccoord)
		folds := base != nil && base.begin(id, ccoord)
		var ch *chunk.Chunk
		if ch, err = r.read(id); err != nil {
			break
		}
		if scheduled && pins != nil {
			pins.scanned(id)
		}
		if ch = r.resolve(id, ch); ch == nil {
			continue
		}
		if scheduled {
			k.beginChunk(og, ccoord)
			tally.cellsScanned += ch.Len()
			ch.ForEachSpan(k.slab, k.scratch, k.relocateSpan)
		}
		if folds {
			base.fold(ch)
		}
	}
	if k != nil {
		k.finish(&tally)
	}
	tally.readTally = r.readTally
	return tally, err
}
