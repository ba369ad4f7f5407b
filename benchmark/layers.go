package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"whatifolap/internal/chunk"
	"whatifolap/internal/core"
	"whatifolap/internal/cube"
	"whatifolap/internal/mdx"
	"whatifolap/internal/pebble"
	"whatifolap/internal/perspective"
	"whatifolap/internal/result"
	"whatifolap/internal/scenario"
	"whatifolap/internal/segment"
	"whatifolap/internal/workload"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. Spans of one op share its op id; parent is the
// id of the span whose interval this call belongs to when the server
// runs the query in one piece (0 for a root). The calls are separate
// replays of the same op, so a child's interval does not lie inside
// its parent's.
type span struct {
	ID      int    `json:"id"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracePass replays ops one at a time, on one goroutine, calling each
// layer's public functions in turn with a span around every call.
type tracePass struct {
	fx    *fixture
	c     *client
	t0    time.Time
	spans []span
	ops   int
	// values collects, per per-layer metric, one value per traced op;
	// shares, per layer, each op's self time as a share of that op's
	// handler time.
	values map[string][]float64
	shares map[string][]float64
	// depth pairs scenario chain depth with handler time, for the
	// latency-per-layer slope.
	depth  [][2]float64
	failed []string
}

func newTracePass(fx *fixture, c *client) *tracePass {
	return &tracePass{fx: fx, c: c, t0: time.Now(), values: map[string][]float64{}, shares: map[string][]float64{}}
}

// measure runs fn in a new span and returns the span's id and length.
func (p *tracePass) measure(parent int, name string, fn func() error) (int, float64, error) {
	s := span{ID: len(p.spans) + 1, Op: p.ops, Parent: parent, Name: name, StartNs: int64(time.Since(p.t0))}
	err := fn()
	s.EndNs = int64(time.Since(p.t0))
	p.spans = append(p.spans, s)
	return s.ID, float64(s.EndNs-s.StartNs) / 1e6, err
}

func (p *tracePass) add(metric string, v float64) { p.values[metric] = append(p.values[metric], v) }

func (p *tracePass) fail(o op, err error) {
	p.failed = append(p.failed, fmt.Sprintf("traced %s: %v: %.160s", o.class, err, o.query))
}

// run replays ops from the client's stream until the deadline, and at
// least minOps of them.
func (p *tracePass) run(deadline time.Time, minOps int) {
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		p.ops++
		p.trace(p.c.stream.next())
	}
}

func (p *tracePass) trace(o op) {
	scenarios := p.fx.svc.Scenarios()
	sc, _ := scenarios.Get(p.c.ids[o.slot])
	var err error
	switch o.kind {
	case opQuery:
		err = p.traceQuery(o, sc)
	case opCreate:
		if out := p.c.do(o); !out.ok() {
			err = fmt.Errorf("status %d: %v", out.status, out.err)
		}
	case opEdit:
		var ms float64
		_, ms, err = p.measure(0, "scenario.apply", func() error { _, err := sc.Apply(o.edits); return err })
		p.add("scenario.apply_ms", ms)
	case opFork:
		var ms float64
		_, ms, err = p.measure(0, "scenario.fork", func() error {
			child, err := scenarios.Fork(sc.ID(), "")
			if err == nil {
				p.c.ids[slotFork] = child.ID()
			}
			return err
		})
		p.add("scenario.fork_ms", ms)
	case opDiff:
		cur, _ := scenarios.Get(p.c.ids[slotCur])
		var ms float64
		_, ms, err = p.measure(0, "scenario.diff", func() error { _, err := scenario.Diff(sc, cur); return err })
		p.add("scenario.diff_ms", ms)
	case opDiscard:
		if o.slot == slotCur {
			// What a commit pays before it publishes. The traced pass's
			// sessions never commit, so its base version never moves; it
			// materializes each session before discarding it instead.
			var ms float64
			_, ms, err = p.measure(0, "scenario.materialize", func() error { _, err := sc.Materialize(); return err })
			p.add("scenario.materialize_ms", ms)
		}
		scenarios.Delete(sc.ID())
	}
	if err != nil {
		p.fail(o, err)
	}
}

// traceQuery measures one query at every layer. handler is one call of
// the server's handler on a result cache that has not seen the query;
// the rest are replays of the calls that handler makes.
func (p *tracePass) traceQuery(o op, sc *scenario.Scenario) error {
	_, path, payload := p.c.request(o)
	reqBody, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	var rec *httptest.ResponseRecorder
	serve := func() error {
		rec = httptest.NewRecorder()
		p.fx.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(reqBody)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", rec.Code, rec.Body)
		}
		return nil
	}
	root, handlerMs, err := p.measure(0, "server.handler", serve)
	if err != nil {
		return err
	}
	if rec.Header().Get("X-Cache") != "MISS" {
		return nil // a text the closed loop already issued; nothing to learn
	}
	servedBody := rec.Body.Bytes()
	_, hitMs, err := p.measure(0, "server.hit", serve)
	if err != nil {
		return err
	}
	out := p.c.do(o)
	if !out.ok() || !bytes.Equal(out.body, servedBody) {
		return fmt.Errorf("loopback reply differs from the handler's: status %d err %v", out.status, out.err)
	}
	p.add("server.handler_ms", handlerMs)
	p.add("server.hit_ms", hitMs)
	p.add("server.transport_ms", max(0, out.ms-hitMs))
	p.add("server.resp_bytes", float64(len(servedBody)))
	p.add("mdx.query_bytes", float64(len(o.query)))

	_, normalizeMs, err := p.measure(root, "mdx.normalize", func() error { _, err := mdx.Normalize(o.query); return err })
	if err != nil {
		return err
	}
	var q *mdx.Query
	_, parseMs, err := p.measure(root, "mdx.parse", func() (err error) { q, err = mdx.Parse(o.query); return })
	if err != nil {
		return err
	}

	var target *cube.Cube
	if sc == nil {
		snap, err := p.fx.catalog.Acquire(cubeName)
		if err != nil {
			return err
		}
		defer snap.Release()
		target = snap.Cube
	} else {
		_, viewMs, err := p.measure(root, "scenario.view", func() (err error) { target, _, err = sc.View(); return })
		if err != nil {
			return err
		}
		layers := float64(sc.Info().Layers)
		p.add("scenario.view_ms", viewMs)
		p.add("scenario.layers", layers)
		if o.class == "department" {
			p.depth = append(p.depth, [2]float64{layers, handlerMs})
		}
	}

	ctx := context.Background()
	var stats core.Stats
	var grid *result.Grid
	evalSpan, evalMs, err := p.measure(root, "mdx.eval", func() (err error) {
		grid, stats, err = mdx.NewEvaluator(target).RunQueryStatsWith(mdx.RunContext{Ctx: ctx}, q)
		return
	})
	if err == nil {
		err = sameGrid(servedBody, grid)
	}
	if err != nil {
		return err
	}
	if cells := grid.NumRows() * grid.NumCols(); cells > 0 {
		p.add("core.scan_amplification", float64(stats.CellsScanned)/float64(cells))
	}
	rows := map[string]float64{
		"server.self":   handlerMs - normalizeMs - parseMs - evalMs,
		"mdx.normalize": normalizeMs,
		"mdx.parse":     parseMs,
		"mdx.project":   stats.ProjectMs,
		"mdx.lower":     evalMs - stats.ProjectMs,
	}
	p.add("server.self_ms", max(0, rows["server.self"]))
	p.add("mdx.normalize_ms", normalizeMs)
	p.add("mdx.parse_ms", parseMs)
	p.add("mdx.eval_ms", evalMs)
	p.add("mdx.project_ms", stats.ProjectMs)
	if o.engine != nil {
		execMs, err := p.traceEngine(o.engine, target, evalSpan, handlerMs, rows)
		if err != nil {
			return err
		}
		rows["mdx.lower"] -= execMs
	}
	p.add("mdx.lower_ms", max(0, rows["mdx.lower"]))
	for name, ms := range rows {
		p.shares[name] = append(p.shares[name], max(0, ms)/handlerMs)
	}
	return nil
}

// traceEngine replays the engine's part of a query: the whole
// execution, then planning alone, then what planning and scanning are
// made of. It adds the engine's self-time rows and returns exec's time.
func (p *tracePass) traceEngine(es *engineSpec, target *cube.Cube, evalSpan int, handlerMs float64, rows map[string]float64) (float64, error) {
	eng, err := core.New(target, workload.DimDepartment)
	if err != nil {
		return 0, err
	}
	ec := core.ExecContext{Ctx: context.Background()}
	pq := core.PerspectiveQuery{Members: es.members, Perspectives: es.perspectives, Sem: es.sem, Mode: es.mode}
	cq := core.ChangesQuery{Changes: es.changes, Mode: es.mode}
	isChanges := len(es.changes) > 0

	var view *core.View
	execSpan, execMs, err := p.measure(evalSpan, "core.exec", func() (err error) {
		if isChanges {
			view, err = eng.ExecChangesWith(ec, cq)
		} else {
			view, err = eng.ExecPerspectiveWith(ec, pq)
		}
		return
	})
	if err != nil {
		return 0, err
	}
	var plan *core.PhysicalPlan
	planSpan, planMs, err := p.measure(execSpan, "core.plan", func() (err error) {
		if isChanges {
			plan, err = eng.PlanChanges(cq)
		} else {
			plan, err = eng.PlanPerspective(pq)
		}
		return
	})
	if err != nil {
		return 0, err
	}
	var applyMs float64
	if !isChanges {
		members := es.members
		if len(members) == 0 {
			members = eng.Binding().Varying.VaryingMembers()
		}
		var res *perspective.Result
		_, applyMs, err = p.measure(planSpan, "perspective.apply", func() (err error) {
			res, err = perspective.ApplyMembers(es.sem, eng.Binding(), es.perspectives, members)
			return
		})
		if err != nil {
			return 0, err
		}
		p.add("perspective.apply_ms", applyMs)
		p.add("perspective.source_instances", float64(len(res.VSOut)))
	}

	// The merge dependency graph, rebuilt from the plan's adjacency, and
	// the pebbling heuristic on it alone.
	graph := pebble.NewGraph()
	edges := 0
	for _, id := range plan.Schedule {
		graph.AddNode(id)
	}
	for id, nbs := range plan.Neighbors {
		for _, nb := range nbs {
			if id < nb {
				graph.AddEdge(id, nb)
				edges++
			}
		}
	}
	var sched pebble.Schedule
	_, pebbleMs, _ := p.measure(planSpan, "pebble.schedule", func() error { sched = pebble.HeuristicPebble(graph); return nil })
	p.add("pebble.schedule_ms", pebbleMs)
	p.add("pebble.nodes", float64(graph.NumNodes()))
	p.add("pebble.edges", float64(edges))
	p.add("pebble.peak", float64(sched.Peak))
	p.add("pebble.peak_over_bound", float64(sched.Peak)/float64(pebble.MaxDegreeBound(graph)))

	// Reading the scheduled chunks, then iterating their runs without
	// relocating anything: the floor under any scan kernel.
	store, ok := target.Store().(*chunk.Store)
	if chain, isChain := target.Store().(*chunk.Chain); isChain {
		store, ok = chain.ChunkBase(), true
	}
	if !ok {
		return 0, fmt.Errorf("target cube has a %T, want chunks", target.Store())
	}
	chunks := make([]*chunk.Chunk, 0, len(plan.Schedule))
	_, readMs, _ := p.measure(execSpan, "chunk.read", func() error {
		for _, id := range plan.Schedule {
			if c := store.ReadChunk(id); c != nil {
				chunks = append(chunks, c)
			}
		}
		return nil
	})
	cells := 0
	_, iterateMs, _ := p.measure(execSpan, "chunk.iterate", func() error {
		for _, c := range chunks {
			c.ForEachRun(func(_, runLen int, _ float64) bool { cells += runLen; return true })
		}
		return nil
	})

	st := view.Stats
	p.add("core.exec_ms", execMs)
	p.add("core.plan_ms", planMs)
	p.add("core.scan_ms", st.ScanMs)
	p.add("core.merge_ms", st.MergeMs)
	p.add("core.assemble_ms", max(0, execMs-st.PlanMs-st.ScanMs-st.MergeMs))
	p.add("core.plan_share", planMs/handlerMs)
	p.add("core.relevant_chunks", float64(st.RelevantChunks))
	p.add("core.chunks_read", float64(st.ChunksRead))
	p.add("core.cells_scanned", float64(st.CellsScanned))
	p.add("core.cells_relocated", float64(st.CellsRelocated))
	p.add("core.merge_edges", float64(st.MergeEdges))
	p.add("core.merge_groups", float64(st.MergeGroups))
	p.add("core.peak_chunks", float64(st.PeakResidentChunks))
	p.add("chunk.read_ms", readMs)
	p.add("chunk.iterate_ms", iterateMs)

	rows["core.plan"] = planMs - applyMs - pebbleMs
	rows["perspective.apply"] = applyMs
	rows["pebble.schedule"] = pebbleMs
	rows["core.scan"] = st.ScanMs - readMs - iterateMs
	rows["chunk.read"] = readMs
	rows["chunk.iterate"] = iterateMs
	rows["core.merge"] = st.MergeMs
	rows["core.assemble"] = execMs - st.PlanMs - st.ScanMs - st.MergeMs
	return execMs, nil
}

// traceSegment measures the segment layer on a freshly generated copy
// of the workload's cube: create, open, and a read of every chunk.
func (p *tracePass) traceSegment(tmpRoot string) error {
	w, err := workload.NewWorkforce(p.fx.cfg)
	if err != nil {
		return err
	}
	st := w.Cube.Store().(*chunk.Store)
	var meta bytes.Buffer
	if err := workload.SaveSchema(w.Cube, &meta); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "segment-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.seg")
	p.ops++
	_, createMs, err := p.measure(0, "segment.create", func() error {
		return segment.Create(path, st.Geometry().ChunkCap(), meta.Bytes(), st.ChunkIDs(), st.PeekChunk)
	})
	if err != nil {
		return err
	}
	var sf *segment.File
	_, openMs, err := p.measure(0, "segment.open", func() (err error) {
		sf, err = segment.Open(path, segment.OpenOptions{})
		return
	})
	if err != nil {
		return err
	}
	defer sf.Close()
	ids := sf.IDs()
	_, readMs, err := p.measure(0, "segment.read", func() error {
		for _, id := range ids {
			if _, _, err := sf.ReadChunkAt(id); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.add("segment.create_ms", createMs)
	p.add("segment.open_ms", openMs)
	p.add("segment.read_chunk_us", 1000*readMs/float64(max(1, len(ids))))
	p.add("segment.file_bytes", float64(fi.Size()))
	if p.fx.dataDir == "" {
		p.add("disk_bytes_per_cell", float64(fi.Size())/float64(w.Cube.NumCells()))
	}
	return nil
}

// layerTable is the traced pass's summary: the self time of every
// layer, which with unattributed sum to handler, and transport on top to
// reach what the client sees. A workload mixes ops that differ tenfold
// in cost, and medians of their absolute times would describe no op at
// all; a row is therefore the layer's median share of handler time,
// scaled to the median handler time — the median op's budget.
type layerTable struct {
	rows         []layerRow
	handlerMs    float64
	transportMs  float64
	unattributed float64
	ops          int
}

type layerRow struct {
	name string
	ms   float64
}

// layerOrder lists the self-time rows outside in.
var layerOrder = []string{
	"server.self", "mdx.normalize", "mdx.parse", "mdx.lower",
	"core.plan", "perspective.apply", "pebble.schedule",
	"core.scan", "chunk.read", "chunk.iterate", "core.merge", "core.assemble",
	"mdx.project",
}

func (p *tracePass) table() layerTable {
	t := layerTable{
		handlerMs:   median(p.values["server.handler_ms"]),
		transportMs: median(p.values["server.transport_ms"]),
		ops:         len(p.values["server.handler_ms"]),
	}
	sum := 0.0
	for _, name := range layerOrder {
		ms := median(p.shares[name]) * t.handlerMs
		t.rows = append(t.rows, layerRow{name, ms})
		sum += ms
	}
	t.unattributed = t.handlerMs - sum
	return t
}

func (t layerTable) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "layer table, %s: median share of handler time over %d traced queries, as self time of the median query\n", workload, t.ops)
	share := func(ms float64) float64 {
		if t.handlerMs == 0 {
			return 0
		}
		return 100 * ms / t.handlerMs
	}
	for _, r := range t.rows {
		fmt.Fprintf(w, "  %-20s %10.3f ms %6.1f %%\n", r.name, r.ms, share(r.ms))
	}
	fmt.Fprintf(w, "  %-20s %10.3f ms %6.1f %%\n", "unattributed", t.unattributed, share(t.unattributed))
	fmt.Fprintf(w, "  %-20s %10.3f ms\n", "= server.handler", t.handlerMs)
	fmt.Fprintf(w, "  %-20s %10.3f ms\n", "+ server.transport", t.transportMs)
	fmt.Fprintf(w, "  %-20s %10.3f ms\n", "= client latency", t.handlerMs+t.transportMs)
}

// slope is the least-squares slope of y against x over the points.
func slope(points [][2]float64) float64 {
	n := float64(len(points))
	var sx, sy, sxx, sxy float64
	for _, pt := range points {
		sx += pt[0]
		sy += pt[1]
		sxx += pt[0] * pt[0]
		sxy += pt[0] * pt[1]
	}
	if d := n*sxx - sx*sx; d != 0 {
		return (n*sxy - sx*sy) / d
	}
	return 0
}

// writeSpans writes the spans kept in memory as JSON lines.
func writeSpans(path, workload string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{workload, s}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-th quantile of xs by linear interpolation between
// order statistics; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
