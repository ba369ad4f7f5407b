package core

import (
	"context"
	"math"
	"sync"
	"time"

	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/perspective"
	"whatifolap/internal/trace"
)

// This file is a query hot path: span recording happens here, span
// formatting must not (no fmt import — verify.sh enforces it).

// scanTally accumulates one scan unit's counters. Per-group tallies are
// summed in group order at the merge barrier, so parallel statistics
// are deterministic. diskCostMs sums the per-read costs returned by
// the store's cost hook — the race-free replacement for diffing the
// disk's global counters around the execution, which let overlapping
// queries absorb each other's I/O cost.
type scanTally struct {
	chunksRead     int
	cellsScanned   int
	cellsRelocated int
	diskCostMs     float64
	spillFaults    int
	promotions     int
}

// add accumulates t2 into t.
func (t *scanTally) add(t2 scanTally) {
	t.chunksRead += t2.chunksRead
	t.cellsScanned += t2.cellsScanned
	t.cellsRelocated += t2.cellsRelocated
	t.diskCostMs += t2.diskCostMs
	t.spillFaults += t2.spillFaults
	t.promotions += t2.promotions
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
	for i, name := range planStages {
		tr.Record(sp, name, startNs, p.stageNs[i])
		startNs = p.stageNs[i]
	}
}

// runKernel is the run-aware relocation path for run-encoded source
// chunks: instead of decomposing and relocating cell by cell, it cuts
// each value run at the chunk-digit boundaries of the varying and
// parameter dimensions — within such a segment both digits are constant
// (offset strides nest), so one relocation-table probe decides a whole
// segment and the destination offsets stay contiguous. Consecutive
// segments landing on the same destination instance coalesce into one
// overlay run write, so a stable member's entire validity window moves
// with O(1) table work and one SetRunAt. Vanished segments (pruned
// source row or -1 destination) skip in O(1) without touching cells.
//
// All state lives on the struct and the ForEachRun callback is built
// once per scan, so the steady-state path allocates nothing per run.
type runKernel struct {
	target  map[int][]int
	overlay *chunk.Overlay
	vi, pi  int
	// dimV/dimP are the chunk edges, strideV/strideP the in-chunk
	// offset strides, of the varying and parameter dimensions.
	dimV, dimP       int
	strideV, strideP int
	// idStrideV is the canonical-ID stride along the varying dimension
	// in the overlay's (possibly extended) geometry.
	idStrideV int
	// outerIsV records which digit changes slower: runs are cut at the
	// slower stride first so the relocation row probe (keyed by the
	// varying ordinal) hoists out of the inner loop when possible.
	outerIsV     bool
	outer, inner int
	// Per-chunk state, set by beginChunk.
	baseV, baseP, idBase int
	// Pending coalesced destination segment.
	pendID, pendOff, pendLen int
	pendVal                  float64
	moved                    int
	scanned                  int
	emit                     func(start, runLen int, v float64) bool
}

func newRunKernel(g *chunk.Geometry, overlay *chunk.Overlay, target map[int][]int, vi, pi int) *runKernel {
	k := &runKernel{
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
	}
	k.outerIsV = k.strideV >= k.strideP
	if k.outerIsV {
		k.outer, k.inner = k.strideV, k.strideP
	} else {
		k.outer, k.inner = k.strideP, k.strideV
	}
	k.emit = func(start, runLen int, v float64) bool {
		k.scanned += runLen
		k.relocateRun(start, runLen, v)
		return true
	}
	return k
}

// beginChunk positions the kernel on a source chunk: ccoord is the
// chunk's coordinate in the source geometry and idBase the overlay-
// geometry canonical ID of the same coordinate with the varying
// coordinate zeroed (destination ID = idBase + dstChunkCoord·stride).
// ccoord is restored before returning.
func (k *runKernel) beginChunk(og *chunk.Geometry, ccoord []int) {
	vc := ccoord[k.vi]
	k.baseV = vc * k.dimV
	k.baseP = ccoord[k.pi] * k.dimP
	ccoord[k.vi] = 0
	k.idBase = og.CanonicalID(ccoord)
	ccoord[k.vi] = vc
}

// relocateRun relocates one source value run, segmenting at digit
// boundaries. The outer loop fixes the slower digit, the inner loop the
// faster one; when the varying digit is the outer one (a varying
// dimension chunked coarser than the parameter dimension — the
// workforce layout), the per-segment work is one slice index.
func (k *runKernel) relocateRun(start, runLen int, v float64) {
	off := start
	end := start + runLen
	for off < end {
		outerEnd := off - off%k.outer + k.outer
		if outerEnd > end {
			outerEnd = end
		}
		if k.outerIsV {
			digitV := (off / k.strideV) % k.dimV
			row := k.target[k.baseV+digitV]
			if row == nil {
				off = outerEnd
				continue
			}
			for off < outerEnd {
				segEnd := off - off%k.strideP + k.strideP
				if segEnd > outerEnd {
					segEnd = outerEnd
				}
				dst := row[k.baseP+(off/k.strideP)%k.dimP]
				if dst >= 0 {
					k.emitSeg(dst, digitV, off, segEnd-off, v)
				}
				off = segEnd
			}
			continue
		}
		pOrd := k.baseP + (off/k.strideP)%k.dimP
		for off < outerEnd {
			segEnd := off - off%k.strideV + k.strideV
			if segEnd > outerEnd {
				segEnd = outerEnd
			}
			digitV := (off / k.strideV) % k.dimV
			if row := k.target[k.baseV+digitV]; row != nil {
				if dst := row[pOrd]; dst >= 0 {
					k.emitSeg(dst, digitV, off, segEnd-off, v)
				}
			}
			off = segEnd
		}
	}
}

// emitSeg queues one destination segment, coalescing with the pending
// one when it carries the same value and lands directly after it in the
// same destination chunk (consecutive months mapping to the same
// instance do, so a whole validity window flushes as one overlay run
// write). Value equality is on bit patterns, matching run encoding.
func (k *runKernel) emitSeg(dst, digitV, off, segLen int, v float64) {
	dstID := k.idBase + dst/k.dimV*k.idStrideV
	dstOff := off + (dst%k.dimV-digitV)*k.strideV
	k.moved += segLen
	if k.pendLen > 0 && dstID == k.pendID && dstOff == k.pendOff+k.pendLen &&
		math.Float64bits(v) == math.Float64bits(k.pendVal) {
		k.pendLen += segLen
		return
	}
	k.flush()
	k.pendID, k.pendOff, k.pendLen, k.pendVal = dstID, dstOff, segLen, v
}

// flush writes the pending destination segment, if any.
func (k *runKernel) flush() {
	if k.pendLen > 0 {
		k.overlay.SetRunAt(k.pendID, k.pendOff, k.pendLen, k.pendVal)
		k.pendLen = 0
	}
}

// take flushes and returns the cells moved and scanned since the last
// take.
func (k *runKernel) take() (moved, scanned int) {
	k.flush()
	moved, scanned = k.moved, k.scanned
	k.moved, k.scanned = 0, 0
	return moved, scanned
}

// annotateScan attaches a tally's counters to a scan or group span.
// No-op refs (tracing off) make every call free.
func annotateScan(sp trace.SpanRef, t scanTally, workers int) {
	sp.Int("chunks_read", int64(t.chunksRead))
	sp.Int("cells_scanned", int64(t.cellsScanned))
	sp.Int("cells_relocated", int64(t.cellsRelocated))
	sp.IntNonZero("spill_faults", int64(t.spillFaults))
	sp.IntNonZero("overlay_promotions", int64(t.promotions))
	if workers > 0 {
		sp.IntNonZero("workers", int64(workers))
	}
}

// execute runs the staged execution of a physical plan:
//
//	scan     chunk reads + cell relocation into a chunk-grained
//	         overlay (pure integer (chunkID, offset) math, no per-cell
//	         allocation), fanned out over merge groups when
//	         ec.Workers > 1, serial in the plan's global schedule
//	         otherwise;
//	merge    zero-copy: merge edges never cross rest-coordinate
//	         groups, so the per-group overlays are disjoint and are
//	         attached to a partitioned router keyed by masked chunk ID
//	         — O(groups), not O(cells) (a no-op when serial, where the
//	         scan writes the final overlay directly);
//	assemble wiring the overlay view cube.
//
// When newDims is nil the view shares the base cube's dimensions;
// otherwise the view exposes newDims/newBindings (positive scenarios).
func (e *Engine) execute(ec ExecContext, p *PhysicalPlan, newDims []*dimension.Dimension,
	newBindings []*dimension.Binding, mode perspective.Mode) (*View, Stats, error) {

	stats := p.Stats
	workers := ec.Workers
	if workers < 1 {
		workers = 1
	}
	// Cut each group's schedule into sub-tasks at crossing-free edge
	// boundaries, so the scan fans out over min(workers, chunks) units
	// instead of min(workers, groups).
	var tasks []subTask
	if workers > 1 {
		tasks = splitSubtasks(p, workers)
		if workers > len(tasks) {
			workers = len(tasks)
		}
	}
	stats.ScanWorkers = workers

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

	scanSp := tr.Start(parent, "scan")
	scanStart := time.Now()
	var scanT scanTally
	var overlay cube.Store
	if workers > 1 {
		stats.ScanSubtasks = len(tasks)
		overlays, tallies, err := e.scanParallel(ec, p, og, tasks, workers, tr, scanSp)
		if err != nil {
			scanSp.End()
			return nil, stats, err
		}
		for _, t := range tallies {
			scanT.add(t)
		}
		stats.ScanMs = msSince(scanStart)
		annotateScan(scanSp, scanT, workers)
		scanSp.End()
		mergeSp := tr.Start(parent, "merge")
		mergeStart := time.Now()
		po := chunk.NewPartitionedOverlay(og, e.vi)
		for gi, mg := range p.Groups {
			po.Attach(og.MaskedIDOfCoord(mg.Rest, e.vi), overlays[gi])
		}
		overlay = po
		stats.MergeMs = msSince(mergeStart)
		mergeSp.Int("groups", int64(len(p.Groups)))
		mergeSp.End()
	} else {
		ov := chunk.NewOverlay(og)
		t, err := e.scanInto(ec.Ctx, p.Schedule, p, ov, tr, scanSp)
		if err != nil {
			scanSp.End()
			return nil, stats, err
		}
		scanT.add(t)
		overlay = ov
		stats.ScanMs = msSince(scanStart)
		annotateScan(scanSp, scanT, 1)
		scanSp.End()
	}
	stats.ChunksRead += scanT.chunksRead
	stats.CellsScanned += scanT.cellsScanned
	stats.CellsRelocated += scanT.cellsRelocated
	stats.DiskCostMs += scanT.diskCostMs
	stats.SpillFaults += scanT.spillFaults

	// Assemble the view cube. Out-of-scope rows read from the layer
	// chain when the engine runs over a scenario, so unrelocated cells
	// reflect scenario edits too.
	assembleSp := tr.Start(parent, "assemble")
	defer assembleSp.End()
	vs := &viewStore{base: e.readStore(), overlay: overlay, vi: e.vi, scoped: p.Scoped}
	var result *cube.Cube
	if newDims == nil {
		result = cube.NewWithStore(vs, e.base.Dims()...)
		for _, b := range e.base.Bindings() {
			if err := result.AddBinding(b); err != nil {
				return nil, stats, err
			}
		}
	} else {
		result = cube.NewWithStore(vs, newDims...)
		for _, b := range newBindings {
			if err := result.AddBinding(b); err != nil {
				return nil, stats, err
			}
		}
	}
	result.SetRules(e.base.Rules())
	return &View{input: e.base, result: result, mode: mode}, stats, nil
}

// pinTracker enforces the executor side of the pebbling objective on a
// pooled store: a scanned chunk stays pinned while any of its merge-
// dependency partners (plan.Neighbors) is still unscanned, so another
// query's fault-ins cannot evict it before the exchange completes; it
// is released the moment its last partner is read. On an unpooled
// store (Pin is a no-op) the tracker is not built at all.
type pinTracker struct {
	store    *chunk.Store
	plan     *PhysicalPlan
	schedule []int
	// done is how much of the schedule has been scanned.
	done int
	// outstanding counts, per plan node of a chunk in the schedule, its
	// partners later in the schedule that have not been scanned yet: a
	// scanned chunk is pinned exactly while its count is positive.
	outstanding []int32
}

// newPinTracker tracks one schedule of the plan: the global one, a
// merge group's, or a sub-task's cut — each closed under merge edges,
// with the plan's slots ordering every chunk against its partners.
func newPinTracker(store *chunk.Store, schedule []int, p *PhysicalPlan) *pinTracker {
	pt := &pinTracker{store: store, plan: p, schedule: schedule, outstanding: make([]int32, len(p.nodes))}
	for _, id := range schedule {
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
	for _, id := range pt.schedule[:pt.done] {
		if i, _ := pt.plan.graph.Index(id); pt.outstanding[i] > 0 {
			pt.outstanding[i] = 0
			pt.store.Unpin(id)
		}
	}
}

// scanInto reads the scheduled chunks in order, relocating scoped cells
// through the plan's target tables into the overlay. Relocation is
// chunk-native: the destination address decomposes to (chunkID, offset)
// by integer arithmetic and the write allocates nothing once the
// destination chunk exists. The context, when non-nil, is checked
// before every chunk read. The plan is only read, so concurrent
// scanInto calls over disjoint overlays are safe.
//
// Per-read attribution flows through ReadChunkInfo: modeled disk cost
// sums into the tally, and a buffer-pool fault becomes a "fault" span
// under parent — recorded in hindsight via tr.Now()/tr.Record, so a
// pool hit costs no span slot (and, with tracing off, nothing at all).
func (e *Engine) scanInto(ctx context.Context, schedule []int, p *PhysicalPlan,
	overlay *chunk.Overlay, tr *trace.Trace, parent trace.SpanRef) (scanTally, error) {

	var tally scanTally
	g := e.store.Geometry()
	og := overlay.Geometry()
	ccoord := make([]int, g.NumDims())
	addr := make([]int, g.NumDims())
	out := make([]int, g.NumDims())
	promBefore := overlay.Promotions()
	// The run kernel is built lazily, on the first run-encoded chunk:
	// dense and sparse chunks keep the per-cell path below, so the
	// dense baseline in the RLE figures measures unchanged code.
	var rk *runKernel

	var pins *pinTracker
	if e.store.Pooled() && p.Stats.MergeEdges > 0 {
		pins = newPinTracker(e.store, schedule, p)
		defer pins.releaseAll()
	}

	// The per-cell relocation closure is hoisted out of the schedule
	// loop: every capture (scratch buffers, plan tables, the overlay)
	// is loop-invariant — ccoord is updated in place per chunk — so one
	// allocation serves the whole scan instead of one per chunk.
	relocate := func(off int, v float64) bool {
		tally.cellsScanned++
		g.Join(ccoord, off, addr)
		row := p.Target[addr[e.vi]]
		if row == nil {
			return true
		}
		dst := row[addr[e.pi]]
		if dst < 0 {
			return true
		}
		copy(out, addr)
		out[e.vi] = dst
		overlay.Set(out, v)
		tally.cellsRelocated++
		return true
	}

	for _, id := range schedule {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return tally, err
			}
		}
		readStart := tr.Now()
		ch, info := e.store.ReadChunkInfo(id)
		tally.chunksRead++
		tally.diskCostMs += info.CostMs
		if info.Faulted {
			tally.spillFaults++
			sp := tr.Record(parent, "fault", readStart, tr.Now())
			sp.Int("chunk", int64(id))
			sp.IntNonZero("evictions", int64(info.Evictions))
			if info.Pinned {
				sp.Int("pinned", 1)
			}
			if info.Durable {
				sp.Int("durable", 1)
			}
		}
		if pins != nil {
			pins.scanned(id)
		}
		if ch == nil && e.chain == nil {
			continue
		}
		g.CoordOf(id, ccoord)
		if e.chain != nil {
			// Scenario scan: resolve the chunk's cells through the layer
			// chain (newest layer wins, tombstones skip) — including
			// layer-only cells in chunks the base never materialized
			// (ch == nil), which the planner scheduled via the chain's
			// chunk-ID union.
			e.chain.ForEachMerged(id, ch, relocate)
			continue
		}
		if ch.Rep() == chunk.RunEncoded {
			// Run-aware path: relocate whole value runs through the
			// kernel (one table probe per digit segment, coalesced
			// overlay run writes) instead of cell by cell.
			if rk == nil {
				rk = newRunKernel(g, overlay, p.Target, e.vi, e.pi)
			}
			rk.beginChunk(og, ccoord)
			ch.ForEachRun(rk.emit)
			moved, scanned := rk.take()
			tally.cellsRelocated += moved
			tally.cellsScanned += scanned
			continue
		}
		ch.ForEach(relocate)
	}
	tally.promotions = overlay.Promotions() - promBefore
	return tally, nil
}

// scanParallel fans the scan out over the plan's sub-tasks — contiguous
// crossing-free cuts of merge-group schedules — on a bounded worker
// pool. Each sub-task scans into a private chunk-grained overlay in its
// cut's schedule order: merge edges never cross groups, and sub-task
// cuts never separate an edge's endpoints, so the pebbling order stays
// legal per task. At the barrier, sibling sub-tasks of one group fold
// into the group overlay (Overlay.Absorb) in task order — their cell
// sets are disjoint because relocation destinations are injective per
// parameter leaf — and the caller attaches the group overlays to a
// partitioned router. Cells from different groups can never collide
// (they differ in a non-varying coordinate), so the routed overlay is
// identical to the serial scan's. Each sub-task records a "group" child
// span under scanSp with its own tally and, when its group was split, a
// "subtask" attribute (safe from worker goroutines: span slots are
// claimed atomically).
func (e *Engine) scanParallel(ec ExecContext, p *PhysicalPlan, og *chunk.Geometry,
	tasks []subTask, workers int, tr *trace.Trace, scanSp trace.SpanRef) ([]*chunk.Overlay, []scanTally, error) {

	taskOvs := make([]*chunk.Overlay, len(tasks))
	tallies := make([]scanTally, len(tasks))

	ctx, cancel := context.WithCancel(ec.context())
	defer cancel()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel() // stop the feeder and the sibling workers promptly
		})
	}
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range work {
				task := tasks[ti]
				//lint:allocok one overlay per merge-group task by design; the task, not the cell, is the unit of work
				ov := chunk.NewOverlay(og)
				gsp := tr.Start(scanSp, "group")
				gsp.Int("group", int64(task.group))
				gsp.IntNonZero("subtask", int64(task.part))
				t, err := e.scanInto(ctx, task.chunks, p, ov, tr, gsp)
				annotateScan(gsp, t, 0)
				gsp.End()
				tallies[ti] = t
				if err != nil {
					fail(err)
					return
				}
				taskOvs[ti] = ov
			}
		}()
	}
feed:
	for ti := range tasks {
		select {
		case work <- ti:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if firstErr == nil {
		firstErr = ec.err()
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	overlays := make([]*chunk.Overlay, len(p.Groups))
	for ti, task := range tasks {
		if overlays[task.group] == nil {
			overlays[task.group] = taskOvs[ti]
		} else {
			overlays[task.group].Absorb(taskOvs[ti])
		}
	}
	return overlays, tallies, nil
}
