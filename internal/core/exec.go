package core

import (
	"context"
	"math"
	"time"

	"whatifolap/internal/chunk"
	"whatifolap/internal/dimension"
	"whatifolap/internal/perspective"
	"whatifolap/internal/trace"
)

// This file is a query hot path: span recording happens here, span
// formatting must not (no fmt import — verify.sh enforces it).

// scanTally accumulates the scan's counters. diskCostMs sums the
// per-read costs returned by the store's cost hook — the race-free
// replacement for diffing the disk's global counters around the
// execution, which let overlapping queries absorb each other's I/O cost.
type scanTally struct {
	chunksRead     int
	cellsScanned   int
	cellsRelocated int
	diskCostMs     float64
	spillFaults    int
	faultMs        float64 // wall time of those faults: tier read + decode
	promotions     int
	// slabs counts the slab decisions the kernel made, slabsSkipped those
	// whose cells vanished (pruned source row or -1 destination);
	// cellsOffGrid the cells of surviving slabs the footprint's mask kept
	// out of the overlay.
	slabs, slabsSkipped, cellsOffGrid int
}

// planStages names the planning sub-stages whose end offsets a plan
// keeps in stageNs: the relocation tables and their pruning, the merge
// dependency graph, the read schedule, and the merge-group partition.
var planStages = [...]string{"plan.targets", "plan.graph", "plan.pebble", "plan.groups"}

// recordPlanSpan claims a hindsight "plan" span covering the planning
// stage with the plan's shape as attributes, and under it one child per
// sub-stage, so a slow plan names the step that was slow. No-op with
// tracing off.
func recordPlanSpan(tr *trace.Trace, parent trace.SpanRef, startNs int64, p *PhysicalPlan) {
	sp := tr.Record(parent, "plan", startNs, tr.Now())
	sp.Int("merge_groups", int64(len(p.Groups)))
	sp.Int("chunks", int64(len(p.Schedule)))
	sp.IntNonZero("merge_edges", int64(p.Stats.MergeEdges))
	sp.IntNonZero("pebbling_peak", int64(p.Stats.PeakResidentChunks))
	sp.IntNonZero("footprint_cells", int64(p.footprintCells))
	sp.IntNonZero("chunks_pruned", int64(p.chunksPruned))
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
// slab's cells move in one overlay write. Chunk.ForEachSpan feeds it
// every representation; a scenario chunk arrives resolved
// (Chain.Resolve).
//
// A span carries either its cells (distinct values: each surviving slab
// is one Overlay.SetCellsAt) or one value (a run: slabs landing back to
// back in one destination chunk — consecutive months mapping to the same
// instance do — coalesce, so a stable member's whole validity window is
// one Overlay.SetRunAt). Under a footprint a surviving slab moves only
// the cells its merge group's mask passes (slabMask: one flag per slab,
// one run list inside it, built with the plan); without one the mask is
// the whole slab, and the writes are the same. All state lives on the
// struct: the steady-state path allocates nothing per slab.
type slabKernel struct {
	target  *RelocTable
	overlay *chunk.Overlay
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
	// whole is the mask of a chunk wholly on the footprint: one run, the
	// slab.
	whole slabMask
	// Per-chunk state, set by beginChunk. mask is the chunk's merge
	// group's (masked: it is not the whole slab), rowOf the relocation
	// table's index of the chunk's varying coordinate. row is the relocation row of varying digit digitV, which
	// holds up to offset rowEnd: when the varying digit is the slower one
	// (the workforce layout) consecutive slabs share it, and the digit is
	// derived and the table probed once per digit block, not once per
	// slab.
	mask           *slabMask
	masked         bool
	rowOf          []int32
	baseP, idBase  int
	row            []int
	digitV, rowEnd int
	// Pending coalesced destination run.
	pendID, pendOff, pendLen int
	pendVal                  float64
	// moved counts cells written, offGrid those a surviving slab's mask
	// kept back; slabs and skipped count slab decisions and those whose
	// cells vanished (a run-encoded chunk counts a slab once per run
	// entering it). promBase is the overlay's promotion count when the
	// scan began.
	moved, offGrid, slabs, skipped, promBase int
}

func newSlabKernel(g *chunk.Geometry, overlay *chunk.Overlay, target *RelocTable, vi, pi int) *slabKernel {
	k := &slabKernel{
		target:  target,
		overlay: overlay,
		vi:      vi,
		pi:      pi,
		dimV:    g.ChunkDims[vi],
		dimP:    g.ChunkDims[pi],
		strideV: g.OffsetStride(vi),
		strideP: g.OffsetStride(pi),
		// Destination IDs live in the overlay's geometry: a positive
		// scenario extends the varying dimension, changing its chunk
		// count and therefore every ID stride above it.
		idStrideV: overlay.Geometry().ChunkIDStride(vi),
		promBase:  overlay.Promotions(),
	}
	k.slab = min(k.strideV, k.strideP)
	k.whole.runs = []offRun{{0, k.slab}}
	k.scratch = make([]float64, k.slab)
	for i := range k.scratch {
		k.scratch[i] = math.NaN()
	}
	return k
}

// beginChunk positions the kernel on a source chunk: ccoord is the
// chunk's coordinate in the source geometry and idBase the overlay-
// geometry canonical ID of the same coordinate with the varying
// coordinate zeroed (destination ID = idBase + dstChunkCoord·stride);
// mask is its merge group's, nil for a chunk wholly on the footprint.
// ccoord is restored before returning.
func (k *slabKernel) beginChunk(og *chunk.Geometry, ccoord []int, mask *slabMask) {
	k.mask, k.masked = mask, mask != nil
	if !k.masked {
		k.mask = &k.whole
	}
	vc := ccoord[k.vi]
	k.rowOf = k.target.index[vc]
	k.baseP = ccoord[k.pi] * k.dimP
	ccoord[k.vi] = 0
	k.idBase = og.CanonicalID(ccoord)
	ccoord[k.vi] = vc
	k.rowEnd = 0
}

// relocateSpan relocates the source offsets [start, start+n), one slab
// (or the part of one the span covers) per step: cells[i] is the cell at
// start+i, or cells is nil and every cell holds v. A slab vanishes when
// its source row was pruned — and then so does every other slab of its
// varying digit, skipped as one block — when the row sends its parameter
// leaf to -1, or when that leaf lies past the parameter extent: a partial
// last chunk's padding, which a dense span covers too. A surviving slab
// moves the cells its chunk's mask passes.
func (k *slabKernel) relocateSpan(start, n int, cells []float64, v float64) {
	for off, end := start, start+n; off < end; {
		if off >= k.rowEnd { // spans ascend, so this is the next digit block
			block := off / k.strideV
			k.digitV = block % k.dimV
			k.row = nil
			if k.rowOf != nil && k.rowOf[k.digitV] >= 0 {
				w := k.target.width
				k.row = k.target.rows[int(k.rowOf[k.digitV])*w:][:w]
			}
			k.rowEnd = (block + 1) * k.strideV
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
			dstID := k.idBase + dst/k.dimV*k.idStrideV
			shift := (dst%k.dimV - k.digitV) * k.strideV // destination offset - source offset
			slabStart := off - off%k.slab
			moved := 0
			if k.mask.outer == nil || k.mask.outer[off/k.slab] {
				for _, r := range k.mask.runs {
					lo, hi := max(slabStart+r.lo, off), min(slabStart+r.hi, segEnd)
					if lo >= hi {
						continue
					}
					if cells != nil {
						moved += k.overlay.SetCellsAt(dstID, lo+shift, cells[lo-start:hi-start])
					} else {
						k.moveRun(dstID, lo+shift, hi-lo, v)
						moved += hi - lo
					}
				}
			}
			k.moved += moved
			if k.masked {
				if cells != nil {
					k.offGrid += countNonNull(cells[off-start:segEnd-start]) - moved
				} else {
					k.offGrid += segEnd - off - moved
				}
			}
		}
		off = segEnd
	}
}

// countNonNull counts the cells that are not Null.
func countNonNull(cells []float64) int {
	n := 0
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
	k.flush()
	t.cellsRelocated += k.moved
	t.slabs += k.slabs
	t.slabsSkipped += k.skipped
	t.cellsOffGrid += k.offGrid
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

// execute runs the staged execution of a physical plan:
//
//	scan     chunk reads + relocation into a chunk-grained overlay, a
//	         slab at a time (slabKernel: one table probe and one bulk
//	         write per block of cells sharing their varying and
//	         parameter digits, whatever the chunk's representation).
//	         One pass over the plan's global schedule on the calling
//	         goroutine, so the resident chunk count is the pebbling
//	         peak EXPLAIN prints and a panic unwinds through the
//	         caller's recover;
//	assemble wiring the overlay view cube.
//
// When newDims is nil the view shares the base cube's dimensions;
// otherwise the view exposes newDims/newBindings and reads unscoped rows
// of the base through baseOrd (positive scenarios).
func (e *Engine) execute(ec ExecContext, p *PhysicalPlan, newDims []*dimension.Dimension,
	newBindings []*dimension.Binding, baseOrd []int, mode perspective.Mode) (*View, Stats, error) {

	stats := p.Stats

	// The overlay's geometry matches the base store's, except that a
	// positive scenario extends the varying dimension with hypothetical
	// instances whose ordinals lie beyond the base extent.
	og := e.store.Geometry()
	if newDims != nil {
		ext := make([]int, len(og.Extents))
		copy(ext, og.Extents)
		if n := newDims[e.vi].NumLeaves(); n > ext[e.vi] {
			ext[e.vi] = n
		}
		var err error
		og, err = chunk.NewGeometry(ext, og.ChunkDims)
		if err != nil {
			return nil, stats, err
		}
	}

	tr := trace.FromContext(ec.Ctx)
	parent := trace.SpanFromContext(ec.Ctx)

	overlay := chunk.NewOverlay(og)
	scanSp := tr.Start(parent, "scan")
	scanStart := time.Now()
	scanT, err := e.scanInto(ec.Ctx, p, overlay, tr, scanSp)
	if err != nil {
		scanSp.End()
		return nil, stats, err
	}
	stats.ScanMs = msSince(scanStart)
	annotateScan(scanSp, scanT)
	scanSp.End()
	stats.ChunksRead += scanT.chunksRead
	stats.CellsScanned += scanT.cellsScanned
	stats.CellsRelocated += scanT.cellsRelocated
	stats.DiskCostMs += scanT.diskCostMs
	stats.SpillFaults += scanT.spillFaults
	stats.FaultMs += scanT.faultMs

	// Assemble the view cube. Out-of-scope rows read from the layer
	// chain when the engine runs over a scenario, so unrelocated cells
	// reflect scenario edits too.
	assembleSp := tr.Start(parent, "assemble")
	defer assembleSp.End()
	vs := &viewStore{base: e.readStore(), overlay: overlay, vi: e.vi, scoped: p.Scoped, baseOrd: baseOrd}
	view, err := e.assemble(vs, newDims, newBindings, mode)
	return view, stats, err
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

// scanInto reads the plan's scheduled chunks in order and hands each to the
// slab kernel, which relocates its scoped slabs through the plan's
// target tables into the overlay — one loop body for every chunk
// representation and for scenario chunks, which the layer chain first
// resolves into a reused dense chunk (chunks no layer touches pass
// through as stored, and chunks only a layer holds — the planner
// scheduled them from the chain's chunk-ID union — resolve from
// nothing). Cells scanned are the non-null cells the chunks read hold
// (Chunk.Len, the resolved count under a chain), whether or not a slab
// decision ever looked at them. The context, when non-nil, is checked
// before every chunk read. The plan is only read, so concurrent queries
// may share it.
//
// Per-read attribution flows through ReadChunkInfo: modeled disk cost
// sums into the tally, and a buffer-pool fault becomes a "fault" span
// under parent — recorded in hindsight via tr.Now()/tr.Record, so a
// pool hit costs no span slot (and, with tracing off, nothing at all).
func (e *Engine) scanInto(ctx context.Context, p *PhysicalPlan, overlay *chunk.Overlay,
	tr *trace.Trace, parent trace.SpanRef) (scanTally, error) {

	var tally scanTally
	g := e.store.Geometry()
	og := overlay.Geometry()
	ccoord := make([]int, g.NumDims())
	k := newSlabKernel(g, overlay, p.Target, e.vi, e.pi)
	var resolved *chunk.Chunk
	if e.chain != nil {
		resolved = chunk.NewDense(g.ChunkCap())
	}

	var pins *pinTracker
	if e.store.Pooled() && p.Stats.MergeEdges > 0 {
		pins = newPinTracker(e.store, p)
		defer pins.releaseAll()
	}

	var err error
	for _, id := range p.Schedule {
		if ctx != nil {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		readStart := tr.Now()
		ch, info := e.store.ReadChunkInfo(id)
		tally.chunksRead++
		tally.diskCostMs += info.CostMs
		if info.Faulted {
			tally.spillFaults++
			tally.faultMs += info.FaultMs
			sp := tr.Record(parent, "fault", readStart, tr.Now())
			sp.Int("chunk", int64(id))
			sp.IntNonZero("evictions", int64(info.Evictions))
			if info.Pinned {
				sp.Int("pinned", 1)
			}
		}
		if pins != nil {
			pins.scanned(id)
		}
		if e.chain != nil {
			ch = e.chain.Resolve(id, ch, resolved)
		}
		if ch == nil {
			continue
		}
		g.CoordOf(id, ccoord)
		k.beginChunk(og, ccoord, p.maskOf(id))
		tally.cellsScanned += ch.Len()
		ch.ForEachSpan(k.slab, k.scratch, k.relocateSpan)
	}
	k.finish(&tally)
	return tally, err
}
