package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"whatifolap/internal/pebble"
	"whatifolap/internal/trace"
)

// ExecContext carries per-execution parameters through the evaluator
// (as mdx.RunContext, an alias) and the engine's staged pipeline. The
// zero value runs without cancellation. It travels through the
// Exec*With methods because the engine holds no per-query state: one
// engine serves concurrent queries.
type ExecContext struct {
	// Ctx, when non-nil, is checked at chunk-iteration boundaries and
	// between grid rows of the projection, so a long query is abandoned
	// promptly with the context's error.
	Ctx context.Context
}

// Err reports the context's error, if any.
func (ec ExecContext) Err() error {
	if ec.Ctx == nil {
		return nil
	}
	return ec.Ctx.Err()
}

// Context returns the caller's context. The zero ExecContext is the
// documented "no cancellation" opt-out, so the nil case is normalized
// here, at the API boundary, and nowhere deeper in the pipeline.
func (ec ExecContext) Context() context.Context {
	if ec.Ctx != nil {
		return ec.Ctx
	}
	//lint:ctxok API-boundary shim: a zero ExecContext documents the caller's opt-out of cancellation
	return context.Background()
}

// MergeGroup is the relevant chunks sharing every chunk coordinate
// outside the varying dimension. A merge edge connects chunks that
// exchange relocated cells, and relocation only moves a cell along the
// varying dimension, so both endpoints of any edge share all non-varying
// coordinates — edges cannot cross groups. A group is the unit the
// footprint keeps or drops whole, and its own pebbling peak says how
// much of the global peak one slice of the cube needs.
type MergeGroup struct {
	// Rest is the chunk coordinate with the varying dimension masked to
	// -1, identifying the group.
	Rest []int
	// Chunks is the group's read schedule: the plan's global schedule
	// restricted to this group, preserving relative order (so the
	// per-group pebbling stays legal).
	Chunks []int
	// Edges counts merge-dependency edges inside the group.
	Edges int
	// Peak is the peak co-resident chunk count when the group's
	// schedule is pebbled on its own subgraph.
	Peak int
}

// PhysicalPlan is the engine's inspectable physical execution plan for
// one relocation query: the relocation tables, which chunks to read in
// what order, and the merge-group partition of those chunks. A plan is
// a pure value — building one performs no chunk I/O and mutates no
// engine state — so it can be printed (Describe), tested stage by
// stage, and executed concurrently.
type PhysicalPlan struct {
	// Order is the read-order policy the schedule was built under.
	Order ReadOrder
	// Target is the relocation table: per source varying ordinal, the
	// destination ordinal per parameter leaf (-1 = the cell vanishes or
	// lands off the footprint). Read-only after planning.
	Target *RelocTable
	// Scoped marks varying leaf ordinals owned by the query's overlay.
	Scoped []bool
	// Footprint is the query's footprint (nil: none declared), already
	// folded into Target and the relevant chunks.
	Footprint Footprint
	// SourceChunks is the number of materialized chunks the planner chose
	// the relevant ones from; sourceIDs are their IDs, ascending (the
	// compiled projection walks them for the cells the scan left alone).
	SourceChunks int
	sourceIDs    []int
	// Schedule is the global chunk read order the scan follows.
	Schedule []int
	// BaseChunks are the chunks the scan reads after the schedule, in
	// ascending ID, for the grid's base and input cells alone: set when
	// the plan is made for a grid (Plan*Projected, and the projected
	// Exec* entry points as they assemble).
	BaseChunks []int
	// Groups partitions Schedule into independent merge groups, in
	// ascending order of masked chunk ID (the canonical ID of Rest with
	// the varying coordinate zeroed) — row-major over the non-varying
	// chunk coordinates. (Before the dense planner the order was that of
	// a little-endian byte-string key; results never depended on it.)
	Groups []MergeGroup
	// Neighbors is the merge dependency adjacency: for each relevant
	// chunk with merge partners, the chunks it exchanges relocated cells
	// with, ascending. The executor pins by it against eviction — a
	// chunk stays in the buffer pool while any of its partners is still
	// unscanned (the §5.2 pebbling objective, enforced at the pool).
	Neighbors map[int][]int
	// Stats carries the planning-stage statistics: source instances,
	// relevant chunks, merge edges and groups, the pebbling peak, and
	// the planning wall time.
	Stats Stats
	// PhiCached reports that a perspective plan found Φ's relocation rows
	// for its hypothetical in the binding's memo and made no Φ call
	// (planIndex); it is the only field a warm plan and a cold one differ
	// in, with Stats.PlanMs.
	PhiCached bool

	// The executor's dense form of Neighbors: graph is the one merge
	// dependency graph over all groups, nodes the chunk ID per node
	// number (the relevant IDs, ascending), slot the chunk's index in its
	// group's Chunks per node. Merge partners share a group, so slots
	// order them as the global schedule does.
	graph *pebble.Graph
	nodes []int
	slot  []int32
	// footprintCells and chunksPruned are the plan span's attributes:
	// leaf cells on the footprint, and chunks holding source rows that it
	// took off the schedule.
	footprintCells, chunksPruned int
	// stageNs are trace offsets closing the planning sub-stages targets,
	// graph, pebble and groups (zero with tracing off).
	stageNs [len(planStages)]int64
}

// transfer is a cross-chunk relocation: cells of parameter chunk
// coordinate pc move between varying chunk coordinates vs < vd, in
// either direction — a merge edge has none.
type transfer struct{ pc, vs, vd int32 }

// buildPlan runs the planning stage: prune relocation rows that
// contribute nothing, find the relevant chunks, build the merge
// dependency graph with its merge-group partition, and order the reads
// under the engine's read-order policy. Chunks are indexed by their rank
// among the relevant IDs (the graph's node numbers), groups by their
// rank among the masked IDs: no step keys a map by chunk or coordinate.
func (e *Engine) buildPlan(tr *trace.Trace, target *RelocTable, scoped []bool, fp Footprint) (*PhysicalPlan, error) {
	start := time.Now()
	g := e.store.Geometry()
	cdV, cdP := g.ChunkDims[e.vi], g.ChunkDims[e.pi]
	nV, nP := g.ChunksPerDim(e.vi), g.ChunksPerDim(e.pi)
	strideV, strideP := g.ChunkIDStride(e.vi), g.ChunkIDStride(e.pi)
	p := &PhysicalPlan{Order: e.order, Target: target, Scoped: scoped, Footprint: fp}
	if fp != nil {
		p.footprintCells = fp.cells(e.leafCounts(len(scoped)))
	}

	// Drop source rows that contribute nothing (every destination -1):
	// e.g. under static semantics, instances not valid at any
	// perspective, and under a footprint, instances that only feed
	// off-grid cells. Confining reads to contributing rows is the paper's
	// §6.3 point — work must track the varying members in scope.
	target.each(func(srcOrd int, row []int) {
		if !slices.ContainsFunc(row, func(dst int) bool { return dst >= 0 }) {
			target.drop(srcOrd)
		}
	})
	p.Stats.SourceInstances = target.Len()
	p.stageNs[0] = tr.Now()
	source := e.sourceChunkIDs()
	p.SourceChunks, p.sourceIDs = len(source), source
	if target.Len() == 0 {
		// No source row: no relevant chunk, merge graph or schedule.
		p.Stats.PlanMs = msSince(start)
		p.stageNs[1], p.stageNs[2], p.stageNs[3] = p.stageNs[0], p.stageNs[0], p.stageNs[0]
		return p, nil
	}

	// Varying chunk coordinates holding source rows, and the distinct
	// cross-chunk transfers, sorted so that one parameter coordinate's
	// transfers are contiguous.
	srcVC := make([]bool, nV)
	var transfers []transfer
	target.each(func(srcOrd int, row []int) {
		vs := srcOrd / cdV
		srcVC[vs] = true
		for t, dstOrd := range row {
			if dstOrd < 0 || dstOrd/cdV == vs {
				continue
			}
			vd := dstOrd / cdV
			tf := transfer{int32(t / cdP), int32(min(vs, vd)), int32(max(vs, vd))}
			if n := len(transfers); n == 0 || transfers[n-1] != tf {
				transfers = append(transfers, tf)
			}
		}
	})
	slices.SortFunc(transfers, func(a, b transfer) int {
		return cmp.Or(cmp.Compare(a.pc, b.pc), cmp.Compare(a.vs, b.vs), cmp.Compare(a.vd, b.vd))
	})
	transfers = slices.Compact(transfers)

	// Relevant chunks: materialized chunks whose varying coordinate
	// holds source rows and whose every other coordinate holds a
	// footprint leaf, ascending — chunk ids[i] is graph node i. Its merge
	// group is its masked ID (varying coordinate zeroed): merge partners
	// differ in nothing else, so the footprint keeps or drops a group
	// whole.
	filters := fp.chunkFilters(g, e.vi)
	ids, keys := make([]int, 0, len(source)), make([]int, 0, len(source))
	graph := pebble.NewGraph()
	for _, id := range source {
		vc := id / strideV % nV
		if !srcVC[vc] {
			continue
		}
		if slices.ContainsFunc(filters, func(f chunkFilter) bool { return !f.on[id/f.idStride%f.n] }) {
			p.chunksPruned++
			continue
		}
		ids = append(ids, id)
		keys = append(keys, id-vc*strideV)
		graph.AddNode(id)
	}
	n := len(ids)
	p.Stats.RelevantChunks = n
	slices.Sort(keys)
	keys = slices.Compact(keys)
	dense := make([]int32, 2*n+len(keys)*nV)
	label, slot, nodeAt := dense[:n], dense[n:2*n], dense[2*n:]
	for i := range nodeAt {
		nodeAt[i] = -1
	}
	sizes := make([]int, len(keys))
	for i, id := range ids {
		vc := id / strideV % nV
		gi, _ := slices.BinarySearch(keys, id-vc*strideV)
		label[i] = int32(gi)
		nodeAt[gi*nV+vc] = int32(i)
		sizes[gi]++
	}

	// Merge dependency edges: chunks in the same group whose varying
	// coordinates exchange data at this group's parameter coordinate.
	// (A destination past the base extent — a hypothetical instance —
	// has no source chunk to merge with.)
	for gi, key := range keys {
		pc := int32(key / strideP % nP)
		at := nodeAt[gi*nV : (gi+1)*nV]
		lo, _ := slices.BinarySearchFunc(transfers, pc, func(t transfer, pc int32) int { return cmp.Compare(t.pc, pc) })
		for _, t := range transfers[lo:] {
			if t.pc != pc {
				break
			}
			if int(t.vd) < nV && at[t.vs] >= 0 && at[t.vd] >= 0 {
				graph.AddEdge(ids[at[t.vs]], ids[at[t.vd]])
			}
		}
	}
	p.Stats.MergeEdges = graph.NumEdges()
	p.stageNs[1] = tr.Now()

	// The global read order (also the baseline the read-order figures
	// measure).
	if e.order == OrderPebbling {
		p.Schedule = pebble.HeuristicPebble(graph).Order
	} else {
		p.Schedule = sortChunksByOrder(g, ids, e.readPermutation())
	}
	p.stageNs[2] = tr.Now()

	// Partition the schedule into merge groups. Restricting the global
	// order to a group keeps relative order, so it pebbles the group's
	// subgraph legally (a chunk's merge neighbors are all in its group);
	// one labelled pass checks that, overall and per group.
	peak, stats, err := pebble.VerifyGroups(graph, p.Schedule, label, len(keys))
	if err != nil {
		return nil, fmt.Errorf("core: %s schedule invalid: %w", e.order, err)
	}
	p.Stats.PeakResidentChunks = peak
	p.Groups = make([]MergeGroup, len(keys))
	chunks := make([]int, n)
	rests := make([]int, len(keys)*g.NumDims())
	for gi, key := range keys {
		rest := rests[gi*g.NumDims() : (gi+1)*g.NumDims() : (gi+1)*g.NumDims()]
		g.CoordOf(key, rest)
		rest[e.vi] = -1
		p.Groups[gi] = MergeGroup{Rest: rest, Chunks: chunks[:0:sizes[gi]], Edges: stats[gi].Edges, Peak: stats[gi].Peak}
		chunks = chunks[sizes[gi]:]
	}
	p.nodes, p.graph, p.slot = ids, graph, slot
	for _, id := range p.Schedule {
		i, _ := graph.Index(id)
		mg := &p.Groups[label[i]]
		slot[i] = int32(len(mg.Chunks))
		mg.Chunks = append(mg.Chunks, id)
	}
	p.Neighbors = make(map[int][]int, n)
	partners := make([]int, 2*p.Stats.MergeEdges)
	for i, id := range ids {
		if adj := graph.Adjacent(i); len(adj) > 0 {
			p.Neighbors[id] = partners[:len(adj):len(adj)]
			for k, nb := range adj {
				partners[k] = ids[nb]
			}
			partners = partners[len(adj):]
		}
	}
	p.Stats.MergeGroups = len(p.Groups)
	p.Stats.PlanMs = msSince(start)
	p.stageNs[3] = tr.Now()
	return p, nil
}

// Describe renders the plan for explain output: chunk and group counts,
// the read schedule, and the merge-group partition.
func (p *PhysicalPlan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "physical plan: scope %d members, %d moved by Φ; %d relevant chunks, %d base-only chunks, %d merge groups, %d merge edges\n",
		p.Stats.MembersInScope, p.Stats.MembersMoved, p.Stats.RelevantChunks, len(p.BaseChunks), p.Stats.MergeGroups, p.Stats.MergeEdges)
	fmt.Fprintf(&b, "  read order %s, peak resident chunks %d\n", p.Order, p.Stats.PeakResidentChunks)
	fmt.Fprintf(&b, "  schedule:  %s\n", formatIDs(p.Schedule, 16))
	for i, mg := range p.Groups {
		fmt.Fprintf(&b, "  group %-3d rest=%s: %d chunks %s, %d edges, peak %d\n",
			i, restString(mg.Rest), len(mg.Chunks), formatIDs(mg.Chunks, 8), mg.Edges, mg.Peak)
	}
	return b.String()
}

// formatIDs prints at most limit chunk IDs, eliding the rest.
func formatIDs(ids []int, limit int) string {
	if len(ids) <= limit {
		return fmt.Sprint(ids)
	}
	head := fmt.Sprint(ids[:limit])
	return fmt.Sprintf("%s… +%d]", head[:len(head)-1], len(ids)-limit)
}

// restString prints a masked chunk coordinate: (·,0,2) with · at the
// varying dimension, whose -1 is the only negative coordinate.
func restString(rest []int) string {
	s := strings.ReplaceAll(fmt.Sprint(rest), " ", ",")
	return "(" + strings.ReplaceAll(s[1:len(s)-1], "-1", "·") + ")"
}

// msSince reports the wall time since start in milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}
