// Benchmarks regenerating the paper's evaluation (§6), one benchmark
// family per figure, plus the ablations DESIGN.md lists. Run with
//
//	go test -bench=. -benchmem
//
// Custom metrics: chunk_reads/op (engine I/O), disk_ms/op (simulated
// seek model, Fig. 12), peak_chunks (co-resident chunks under the
// chosen read order). cmd/benchfig prints the same series as CSV at a
// larger default scale.
package olap_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"whatifolap/internal/algebra"
	"whatifolap/internal/bench"
	"whatifolap/internal/chunk"
	"whatifolap/internal/core"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/mdx"
	"whatifolap/internal/obs"
	"whatifolap/internal/perspective"
	"whatifolap/internal/scenario"
	"whatifolap/internal/segment"
	"whatifolap/internal/simdisk"
	"whatifolap/internal/trace"
	"whatifolap/internal/workload"
)

// benchConfig is a reduced scale so `go test -bench=.` stays fast; the
// cmd/benchfig harness defaults to the larger ConfigDefault.
func benchConfig() workload.WorkforceConfig {
	return workload.WorkforceConfig{
		Employees: 1020, Departments: 51, ChangingEmployees: 250,
		MinMoves: 1, MaxMoves: 11, Months: 12, Accounts: 4, Scenarios: 1,
		Seed: 1,
	}
}

var (
	wfOnce sync.Once
	wf     *workload.Workforce
	wfErr  error
)

func benchWorkforce(b *testing.B) *workload.Workforce {
	b.Helper()
	wfOnce.Do(func() { wf, wfErr = workload.NewWorkforce(benchConfig()) })
	if wfErr != nil {
		b.Fatal(wfErr)
	}
	return wf
}

func newBenchEngine(b *testing.B) *core.Engine {
	b.Helper()
	e, err := core.New(benchWorkforce(b).Cube, workload.DimDepartment)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func perspectivesPrefix(k int) []int {
	ps := make([]int, k)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

// --- Fig. 11: query time vs. number of perspectives (§6.1) ---

func BenchmarkFig11MultipleMDX(b *testing.B) {
	w := benchWorkforce(b)
	e := newBenchEngine(b)
	for _, k := range []int{1, 2, 4, 6, 8, 12} {
		b.Run(subK(k), func(b *testing.B) {
			var reads int
			for i := 0; i < b.N; i++ {
				v, err := e.SimulateMultiMDX(w.Changing, perspectivesPrefix(k), perspective.NonVisual)
				if err != nil {
					b.Fatal(err)
				}
				reads = v.Stats.ChunksRead
			}
			b.ReportMetric(float64(reads), "chunk_reads/op")
		})
	}
}

func BenchmarkFig11Static(b *testing.B) {
	w := benchWorkforce(b)
	e := newBenchEngine(b)
	for _, k := range []int{1, 2, 4, 6, 8, 12} {
		b.Run(subK(k), func(b *testing.B) {
			var reads int
			for i := 0; i < b.N; i++ {
				v, err := e.ExecPerspective(core.PerspectiveQuery{
					Members: w.Changing, Perspectives: perspectivesPrefix(k),
					Sem: perspective.Static, Mode: perspective.NonVisual,
				})
				if err != nil {
					b.Fatal(err)
				}
				reads = v.Stats.ChunksRead
			}
			b.ReportMetric(float64(reads), "chunk_reads/op")
		})
	}
}

func BenchmarkFig11Forward(b *testing.B) {
	w := benchWorkforce(b)
	e := newBenchEngine(b)
	for _, k := range []int{1, 2, 4, 6, 8, 12} {
		b.Run(subK(k), func(b *testing.B) {
			var reads int
			for i := 0; i < b.N; i++ {
				v, err := e.ExecPerspective(core.PerspectiveQuery{
					Members: w.Changing, Perspectives: perspectivesPrefix(k),
					Sem: perspective.Forward, Mode: perspective.NonVisual,
				})
				if err != nil {
					b.Fatal(err)
				}
				reads = v.Stats.ChunksRead
			}
			b.ReportMetric(float64(reads), "chunk_reads/op")
		})
	}
}

// --- Fig. 12: query time vs. related-chunk separation (§6.2) ---

func BenchmarkFig12Separation(b *testing.B) {
	cfg := bench.Fig12Defaults()
	cfg.BaseSeparation = 500 // keep bench cubes small
	// Rescale the seek cap so the curve saturates inside this smaller
	// sweep, like the full-size harness run.
	cfg.Model.SeekCap = cfg.Model.PerChunk * float64(cfg.BaseSeparation) * 3.5
	for mult := 1; mult <= cfg.MaxMultiple; mult++ {
		b.Run(subK(mult), func(b *testing.B) {
			one := cfg
			one.MaxMultiple = 1
			one.BaseSeparation = cfg.BaseSeparation * mult
			var diskMS float64
			for i := 0; i < b.N; i++ {
				rows, err := bench.Fig12(one, 1)
				if err != nil {
					b.Fatal(err)
				}
				diskMS = rows[0].DiskMS
			}
			b.ReportMetric(diskMS, "disk_ms/op")
		})
	}
}

// --- Fig. 13: query time vs. varying members in scope (§6.3) ---

func BenchmarkFig13Members(b *testing.B) {
	w := benchWorkforce(b)
	e := newBenchEngine(b)
	ps := []int{0, 3, 6, 9}
	for _, n := range []int{50, 100, 150, 200, 250} {
		b.Run(subK(n), func(b *testing.B) {
			var inst int
			for i := 0; i < b.N; i++ {
				v, err := e.ExecPerspective(core.PerspectiveQuery{
					Members: w.Changing[:n], Perspectives: ps,
					Sem: perspective.Static, Mode: perspective.NonVisual,
				})
				if err != nil {
					b.Fatal(err)
				}
				inst = v.Stats.SourceInstances
			}
			b.ReportMetric(float64(inst), "instances")
		})
	}
}

// --- Relocation kernel: overlay write path ---

// BenchmarkRelocationKernelChunkNative replays one query's relocation
// stream into the chunk-native chunk.Overlay one cell at a time:
// integer (chunkID, offset) arithmetic, allocation-free once
// destination chunks exist. Divide allocs/op by cells/op for the
// per-cell figure recorded in BENCH_overlay_kernel.json.
func BenchmarkRelocationKernelChunkNative(b *testing.B) {
	k, err := bench.NewKernel(benchWorkforce(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var cells int
	for i := 0; i < b.N; i++ {
		cells = k.RunChunkNative()
	}
	b.ReportMetric(float64(cells), "cells/op")
}

// --- Trace overhead ---

// BenchmarkTraceOff bounds what the disabled trace hooks cost on the
// relocation hot path: the steady-state chunk-native replay with the
// engine's per-chunk span instrumentation compiled in but a nil
// recorder. Must show 0 allocs/op and stay within 2% of
// BenchmarkRelocationKernelSteady (the same replay without any hooks);
// BENCH_trace_overhead.json records both.
func BenchmarkTraceOff(b *testing.B) {
	k, err := bench.NewKernel(benchWorkforce(b))
	if err != nil {
		b.Fatal(err)
	}
	ov := k.NewOverlay()
	k.ReplayTraced(nil, trace.SpanRef{}, ov) // warm destination chunks
	b.ReportAllocs()
	b.ResetTimer()
	var cells int
	for i := 0; i < b.N; i++ {
		cells = k.ReplayTraced(nil, trace.SpanRef{}, ov)
	}
	b.ReportMetric(float64(cells), "cells/op")
}

// BenchmarkTraceOn is the same replay with a live recorder: the span
// per source chunk is claimed with one atomic add and two monotonic
// clock reads, still allocation-free (the buffer is preallocated).
func BenchmarkTraceOn(b *testing.B) {
	k, err := bench.NewKernel(benchWorkforce(b))
	if err != nil {
		b.Fatal(err)
	}
	ov := k.NewOverlay()
	tr := trace.New(8192)
	k.ReplayTraced(tr, trace.SpanRef{}, ov)
	b.ReportAllocs()
	b.ResetTimer()
	var cells int
	for i := 0; i < b.N; i++ {
		tr.Reset()
		root := tr.Start(trace.SpanRef{}, "replay")
		cells = k.ReplayTraced(tr, root, ov)
		root.End()
	}
	b.ReportMetric(float64(cells), "cells/op")
}

// leafReport is the broad-scan workload's leaf report on the
// ConfigDefault workforce, run through mdx: eight departments' employees
// by month under DYNAMIC FORWARD NONVISUAL at the quarters, the query
// whose scan the served path's trace hooks cost the most on.
func leafReport(b *testing.B) (*mdx.Evaluator, *mdx.Query) {
	b.Helper()
	w, err := workload.NewWorkforce(workload.ConfigDefault())
	if err != nil {
		b.Fatal(err)
	}
	w.Cube.Store().(*chunk.Store).Settle()
	var depts []string
	for d := 0; d < 8; d++ {
		depts = append(depts, fmt.Sprintf("[Dept%02d].Children", d))
	}
	q, err := mdx.Parse("WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department DYNAMIC FORWARD NONVISUAL " +
		"SELECT {[Period].Levels(0).Members} ON COLUMNS, {" + strings.Join(depts, ", ") + "} ON ROWS FROM [App].[Db] " +
		"WHERE ([Account].[Acct001], [Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])")
	if err != nil {
		b.Fatal(err)
	}
	return mdx.NewEvaluator(w.Cube), q
}

// BenchmarkTraceLeafReportOff is the served path's tracing gate, off:
// the broad-scan leaf report through mdx with no recorder — the
// compile, plan, scan and project stages with every span hook a nil
// check. BenchmarkTraceLeafReportOn runs it under a pooled recorder as
// whatifd does; BENCH_trace_overhead.json records the pair's ratio,
// which must stay within 2%.
func BenchmarkTraceLeafReportOff(b *testing.B) {
	ev, q := leafReport(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.RunQueryWith(mdx.RunContext{}, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceLeafReportOn is BenchmarkTraceLeafReportOff under a
// recorder taken from a pool and reset after each query, as whatifd's
// serveQuery does: the spans of every stage, and the scan's counters,
// recorded into a buffer that is reused.
func BenchmarkTraceLeafReportOn(b *testing.B) {
	ev, q := leafReport(b)
	pool := sync.Pool{New: func() any { return trace.New(0) }}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := pool.Get().(*trace.Trace)
		root := tr.Start(trace.SpanRef{}, "eval")
		if _, err := ev.RunQueryWith(mdx.RunContext{Ctx: trace.WithSpan(trace.NewContext(context.Background(), tr), root)}, q); err != nil {
			b.Fatal(err)
		}
		root.End()
		tr.Reset()
		pool.Put(tr)
	}
}

// BenchmarkRelocationKernelSteady is the untraced steady-state baseline
// BenchmarkTraceOff is measured against.
func BenchmarkRelocationKernelSteady(b *testing.B) {
	k, err := bench.NewKernel(benchWorkforce(b))
	if err != nil {
		b.Fatal(err)
	}
	ov := k.NewOverlay()
	k.Replay(ov)
	b.ReportAllocs()
	b.ResetTimer()
	var cells int
	for i := 0; i < b.N; i++ {
		cells = k.Replay(ov)
	}
	b.ReportMetric(float64(cells), "cells/op")
}

// --- Observability overhead ---

// BenchmarkObsRetainOff bounds what the per-query retention decision
// costs when tail-sampling is disabled (nil ring): the traced
// steady-state replay plus one MaybeRetain call on its spans. Must show
// 0 allocs/op and stay within 2% of BenchmarkTraceOn;
// BENCH_obs_overhead.json records both.
func BenchmarkObsRetainOff(b *testing.B) {
	k, err := bench.NewKernel(benchWorkforce(b))
	if err != nil {
		b.Fatal(err)
	}
	ov := k.NewOverlay()
	tr := trace.New(8192)
	k.ReplayTraced(tr, trace.SpanRef{}, ov)
	var ring *obs.TraceRing
	meta := obs.TraceMeta{QueryIdentity: obs.QueryIdentity{Cube: "wf", Query: "bench", LatencyMs: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	var cells int
	for i := 0; i < b.N; i++ {
		tr.Reset()
		root := tr.Start(trace.SpanRef{}, "replay")
		cells = k.ReplayTraced(tr, root, ov)
		root.End()
		ring.MaybeRetain(meta, tr.Spans)
	}
	b.ReportMetric(float64(cells), "cells/op")
}

// BenchmarkObsRetainOn is the same replay against a live 4MiB ring at
// the server's default 1-in-64 sampling: most iterations take the
// atomic-reject path, one in 64 snapshots its spans into the ring.
func BenchmarkObsRetainOn(b *testing.B) {
	k, err := bench.NewKernel(benchWorkforce(b))
	if err != nil {
		b.Fatal(err)
	}
	ov := k.NewOverlay()
	tr := trace.New(8192)
	k.ReplayTraced(tr, trace.SpanRef{}, ov)
	ring := obs.NewTraceRing(4<<20, 64)
	meta := obs.TraceMeta{QueryIdentity: obs.QueryIdentity{Cube: "wf", Query: "bench", LatencyMs: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	var cells int
	for i := 0; i < b.N; i++ {
		tr.Reset()
		root := tr.Start(trace.SpanRef{}, "replay")
		cells = k.ReplayTraced(tr, root, ov)
		root.End()
		ring.MaybeRetain(meta, tr.Spans)
	}
	b.ReportMetric(float64(cells), "cells/op")
}

// --- Ablations ---

func BenchmarkAblationPebbling(b *testing.B) {
	w := benchWorkforce(b)
	for _, order := range []core.ReadOrder{core.OrderPebbling, core.OrderVaryingFirst,
		core.OrderVaryingLast, core.OrderCanonical} {
		b.Run(order.String(), func(b *testing.B) {
			e := newBenchEngine(b)
			e.SetReadOrder(order)
			st := w.Cube.Store().(*chunk.Store)
			var ids []int
			st.SetReadHook(func(id int) { ids = append(ids, id) })
			defer st.SetReadHook(nil)
			var peak int
			for i := 0; i < b.N; i++ {
				ids = ids[:0]
				v, err := e.ExecPerspective(core.PerspectiveQuery{
					Members: w.Changing, Perspectives: []int{0, 6},
					Sem: perspective.Forward, Mode: perspective.NonVisual,
				})
				if err != nil {
					b.Fatal(err)
				}
				peak = v.Stats.PeakResidentChunks
			}
			diskMS, _ := simdisk.DefaultModel().Cost(ids)
			b.ReportMetric(float64(peak), "peak_chunks")
			b.ReportMetric(diskMS, "disk_ms/op")
		})
	}
}

func BenchmarkAblationMode(b *testing.B) {
	// Visual mode re-aggregates quarter cells over the perspective
	// cube; non-visual reads the input scope. The benchmark times the
	// evaluation of all quarter-level aggregates for 20 changing
	// employees.
	w := benchWorkforce(b)
	for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
		b.Run(mode.String(), func(b *testing.B) {
			e := newBenchEngine(b)
			v, err := e.ExecPerspective(core.PerspectiveQuery{
				Members: w.Changing[:20], Perspectives: []int{0, 6},
				Sem: perspective.Forward, Mode: mode,
			})
			if err != nil {
				b.Fatal(err)
			}
			dept := w.Cube.DimByName(workload.DimDepartment)
			period := w.Cube.DimByName(workload.DimPeriod)
			quarters := period.LevelMembers(1)
			tuple := make([]dimension.MemberID, w.Cube.NumDims())
			for i := range tuple {
				tuple[i] = w.Cube.Dim(i).Leaf(0).ID
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, name := range w.Changing[:20] {
					for _, instID := range dept.Instances(name) {
						for _, q := range quarters {
							tuple[0] = instID
							tuple[1] = q
							if _, err := v.Cell(tuple); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
			}
		})
	}
}

func BenchmarkAblationChunkRep(b *testing.B) {
	w := benchWorkforce(b)
	for _, compress := range []bool{false, true} {
		name := "auto"
		if compress {
			name = "compressed"
		}
		b.Run(name, func(b *testing.B) {
			c := w.Cube
			if compress {
				c = w.Cube.Clone()
				// ForceSparseAll is on the concrete chunk store.
				type compressor interface{ ForceSparseAll() int }
				c.Store().(compressor).ForceSparseAll()
			}
			e, err := core.New(c, workload.DimDepartment)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ExecPerspective(core.PerspectiveQuery{
					Members: w.Changing, Perspectives: []int{0, 6},
					Sem: perspective.Forward, Mode: perspective.NonVisual,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Supporting micro-benchmarks ---

func BenchmarkEngineFig4PaperCube(b *testing.B) {
	// The paper's tiny example cube end to end: a sanity baseline.
	w := benchWorkforce(b)
	_ = w
	e := newBenchEngine(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecPerspective(core.PerspectiveQuery{
			Members: wf.Changing[:1], Perspectives: []int{1, 3},
			Sem: perspective.Forward, Mode: perspective.Visual,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func subK(k int) string {
	const digits = "0123456789"
	if k == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for k > 0 {
		i--
		buf[i] = digits[k%10]
		k /= 10
	}
	return string(buf[i:])
}

// --- Run-encoded scan: value runs vs cell spans through the slab kernel ---

var (
	rleOnce sync.Once
	rleWf   *workload.Workforce
	rleErr  error
)

// rleBenchWorkforce builds the validity-window cube shape of the RLE
// figure — flat months (constant value across each instance's validity
// window) and a period-fastest chunk layout — at benchmark scale.
func rleBenchWorkforce(b *testing.B) *workload.Workforce {
	b.Helper()
	rleOnce.Do(func() {
		cfg := benchConfig()
		cfg.FlatMonths = true
		cfg.ChunkDims = []int{64, 12, 1, 1, 1, 1, 1}
		rleWf, rleErr = workload.NewWorkforce(cfg)
	})
	if rleErr != nil {
		b.Fatal(rleErr)
	}
	return rleWf
}

// BenchmarkRleScan runs the same serial forward query over the cube
// stored per-cell (auto dense/sparse) and run-encoded. Both go through
// the slab kernel — as cell spans and as value runs; store_bytes and
// cells_relocated are reported per variant, scan throughput is the
// cells_relocated over the scan stage captured in BENCH_rle_scan.json.
func BenchmarkRleScan(b *testing.B) {
	w := rleBenchWorkforce(b)
	variants := []struct {
		name   string
		encode bool
	}{{"as-loaded", false}, {"run-encoded", true}}
	for _, va := range variants {
		b.Run(va.name, func(b *testing.B) {
			c := w.Cube.Clone()
			st := c.Store().(*chunk.Store)
			if va.encode {
				if n := st.Settle(); n == 0 {
					b.Fatal("nothing run-encoded")
				}
			}
			e, err := core.New(c, workload.DimDepartment)
			if err != nil {
				b.Fatal(err)
			}
			q := core.PerspectiveQuery{
				Members: w.Changing, Perspectives: []int{0, 3, 6, 9},
				Sem: perspective.Forward, Mode: perspective.NonVisual,
			}
			var cells int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := e.ExecPerspective(q)
				if err != nil {
					b.Fatal(err)
				}
				cells = v.Stats.CellsRelocated
			}
			b.ReportMetric(float64(cells), "cells_relocated")
			b.ReportMetric(float64(st.MemBytes()), "store_bytes")
		})
	}
}

// --- Slab kernel: whole queries over dense chunks and a scenario chain ---

// benchScan runs the standard serial forward query on c — to a view,
// or projected into grid g when g is non-nil, under the footprint the
// engine derives from it — and reports the scan stage's share (scan_ms)
// next to ns/op and allocs/op: the CI-side guard for the slab kernel,
// whose allocations — not its timings, on this host — are what a
// regression shows up in first.
func benchScan(b *testing.B, c *cube.Cube, members []string, g *core.Grid) {
	e, err := core.New(c, workload.DimDepartment)
	if err != nil {
		b.Fatal(err)
	}
	q := core.PerspectiveQuery{
		Members: members, Perspectives: []int{0, 3, 6, 9},
		Sem: perspective.Forward, Mode: perspective.NonVisual,
	}
	var out [][]float64
	if g != nil {
		q.Mode = perspective.Visual
		out = make([][]float64, len(g.Rows))
		for i := range out {
			out[i] = make([]float64, len(g.Cols))
		}
	}
	var cells int
	var scanMs float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st core.Stats
		if g != nil {
			st, _, err = e.ExecPerspectiveProjected(core.ExecContext{}, q, *g, out)
		} else {
			var v *core.View
			if v, err = e.ExecPerspective(q); err == nil {
				st = v.Stats
			}
		}
		if err != nil {
			b.Fatal(err)
		}
		cells = st.CellsRelocated
		scanMs += st.ScanMs
	}
	b.ReportMetric(float64(cells), "cells_relocated")
	b.ReportMetric(scanMs/float64(b.N), "scan_ms")
}

// BenchmarkScanDense is the dense feeder: the workforce cube as loaded
// (every chunk over a quarter full, so dense), in the default chunk
// layout — 20-cell slabs.
func BenchmarkScanDense(b *testing.B) {
	w := benchWorkforce(b)
	benchScan(b, w.Cube, w.Changing, nil)
}

// BenchmarkScanDenseFootprint is the same scan for a one-account,
// one-scenario report — a VISUAL row per instance of the scoped members,
// sliced on the first account and scenario — whose footprint the engine
// derives from the grid: every slab survives and its mask passes one
// cell of it (of four, on the bench cube), and the scan folds into the
// grid — the mask path's number outside the daemon (make bench-smoke
// picks it up by BenchmarkScanDense's name).
func BenchmarkScanDenseFootprint(b *testing.B) {
	w := benchWorkforce(b)
	c := w.Cube
	dept, di := c.DimByName(workload.DimDepartment), c.DimIndex(workload.DimDepartment)
	g := core.Grid{Cols: []core.Tuple{{}}}
	for _, name := range w.Changing {
		for _, inst := range dept.Instances(name) {
			g.Rows = append(g.Rows, core.Tuple{{Dim: di, Member: inst}})
		}
	}
	for _, name := range []string{workload.DimAccount, workload.DimScenario} {
		g.Slicer = append(g.Slicer, core.Coord{Dim: c.DimIndex(name), Member: c.DimByName(name).Leaf(0).ID})
	}
	benchScan(b, c, w.Changing, &g)
}

// BenchmarkScanChain is the scenario feeder: the same query through a
// two-layer chain whose edits touch a cell in every fourth chunk, so the
// scan mixes resolved chunks with chunks that pass through as stored.
func BenchmarkScanChain(b *testing.B) {
	w := benchWorkforce(b)
	s, err := scenario.NewLocal("bench", w.Cube)
	if err != nil {
		b.Fatal(err)
	}
	st := w.Cube.Store().(*chunk.Store)
	g := st.Geometry()
	ccoord, addr := make([]int, g.NumDims()), make([]int, g.NumDims())
	for layer := 0; layer < 2; layer++ {
		var edits []scenario.Edit
		for i, id := range st.ChunkIDs() {
			if i%4 != layer {
				continue
			}
			g.CoordOf(id, ccoord)
			st.PeekChunk(id).ForEach(func(off int, v float64) bool {
				g.Join(ccoord, off, addr)
				return false // the chunk's first cell
			})
			cell := make(map[string]string, len(addr))
			for d, o := range addr {
				dim := w.Cube.Dim(d)
				cell[dim.Name()] = dim.Path(dim.Leaf(o).ID)
			}
			edits = append(edits, scenario.Edit{Op: scenario.OpSet, Cell: cell, Value: float64(i)})
		}
		if _, err := s.Apply(edits); err != nil {
			b.Fatal(err)
		}
	}
	view, _, err := s.View()
	if err != nil {
		b.Fatal(err)
	}
	benchScan(b, view, w.Changing, nil)
}

// BenchmarkProject times the projection of a department report — the
// cold-pool workload's query: one department's quarters and months by
// every account, VISUAL — on the ConfigDefault workforce, over one
// engine view: compiled (View.Project, one accumulator pass over the
// chunks holding the grid's leaves) against algebra.CellValue per grid
// cell (a leaf walk each, as the algebra path projects).
func BenchmarkProject(b *testing.B) {
	w, err := workload.NewWorkforce(workload.ConfigDefault())
	if err != nil {
		b.Fatal(err)
	}
	c := w.Cube
	dept, period, account := c.DimByName(workload.DimDepartment), c.DimByName(workload.DimPeriod), c.DimByName(workload.DimAccount)
	di, pi, ai := c.DimIndex(workload.DimDepartment), c.DimIndex(workload.DimPeriod), c.DimIndex(workload.DimAccount)
	d := dept.MustLookup("Dept07")
	var scope []string
	var g core.Grid
	for _, ch := range dept.Member(d).Children {
		scope = append(scope, dept.Member(ch).Name)
	}
	for _, q := range period.Member(period.Root()).Children {
		g.Rows = append(g.Rows, core.Tuple{{Dim: di, Member: d}, {Dim: pi, Member: q}})
		for _, m := range period.Member(q).Children {
			g.Rows = append(g.Rows, core.Tuple{{Dim: di, Member: d}, {Dim: pi, Member: m}})
		}
	}
	for _, a := range account.Leaves() {
		g.Cols = append(g.Cols, core.Tuple{{Dim: ai, Member: a}})
	}
	for _, name := range []string{workload.DimScenario, workload.DimCurrency, workload.DimVersion, workload.DimValueType} {
		dim := c.DimByName(name)
		g.Slicer = append(g.Slicer, core.Coord{Dim: c.DimIndex(name), Member: dim.Leaf(0).ID})
	}
	e, err := core.New(c, workload.DimDepartment)
	if err != nil {
		b.Fatal(err)
	}
	v, err := e.ExecPerspective(core.PerspectiveQuery{Members: scope, Perspectives: []int{0, 3, 6, 9},
		Sem: perspective.Forward, Mode: perspective.Visual})
	if err != nil {
		b.Fatal(err)
	}
	out := make([][]float64, len(g.Rows))
	for i := range out {
		out[i] = make([]float64, len(g.Cols))
	}
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := v.Project(core.ExecContext{}, g, out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(g.Rows)*len(g.Cols)), "cells/op")
	})
	b.Run("per-cell", func(b *testing.B) {
		b.ReportAllocs()
		ids := make([]dimension.MemberID, c.NumDims())
		for i := 0; i < b.N; i++ {
			for r, rt := range g.Rows {
				for col, ct := range g.Cols {
					clear(ids)
					for _, tp := range []core.Tuple{g.Slicer, ct, rt} {
						for _, co := range tp {
							ids[co.Dim] = co.Member
						}
					}
					val, err := algebra.CellValue(v.Input(), v.Result(), ids, perspective.Visual)
					if err != nil {
						b.Fatal(err)
					}
					out[r][col] = val
				}
			}
		}
		b.ReportMetric(float64(len(g.Rows)*len(g.Cols)), "cells/op")
	})
}

// --- Query compile cost: the end-to-end benchmark's plan-heavy query ---

// BenchmarkLowerPlanHeavy runs the plan-heavy workload's query — 30
// changing employees named by unqualified instance path on the rows,
// the months on the columns, one account under the slicer, NONVISUAL
// DYNAMIC FORWARD at the quarters — on the validity-window cube
// (ConfigDefault, flat months, period-fastest chunks, run-encoded), the
// whole query under a trace. Besides ns/op it reports the "lower" span
// (member resolution, the footprint) and the "project" span per op,
// the two compile steps whose cost should follow the 30 members named
// and not the cube's dimensions and chunk rows.
func BenchmarkLowerPlanHeavy(b *testing.B) {
	cfg := workload.ConfigDefault()
	cfg.FlatMonths = true
	cfg.ChunkDims = []int{64, 12, 1, 1, 1, 1, 1}
	w, err := workload.NewWorkforce(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c := w.Cube
	c.Store().(*chunk.Store).Settle()
	dept, bind := c.DimByName(workload.DimDepartment), c.BindingFor(workload.DimDepartment)
	// One employee from each of 30 strata of the changing employees by
	// number of moves, named by the instance valid in January.
	byMoves := slices.Clone(w.Changing)
	slices.SortStableFunc(byMoves, func(x, y string) int { return w.MovesOf[x] - w.MovesOf[y] })
	var rows []string
	for i := 0; i < 30; i++ {
		inst := bind.InstanceAt(byMoves[i*len(byMoves)/30], 0)
		if inst == dimension.None {
			inst = dept.Instances(byMoves[i*len(byMoves)/30])[0]
		}
		rows = append(rows, "["+dept.Path(inst)+"]")
	}
	account := c.DimByName(workload.DimAccount).Leaf(0).Name
	scen := c.DimByName(workload.DimScenario).Leaf(0).Name
	q, err := mdx.Parse("WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department DYNAMIC FORWARD NONVISUAL " +
		"SELECT {[Period].Levels(0).Members} ON COLUMNS, {" + strings.Join(rows, ", ") + "} ON ROWS FROM [App].[Db] " +
		"WHERE ([Account].[" + account + "], [Scenario].[" + scen + "], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])")
	if err != nil {
		b.Fatal(err)
	}
	ev := mdx.NewEvaluator(c)
	tr := trace.New(0)
	ctx := trace.NewContext(context.Background(), tr)
	var lowerMs, projectMs float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		root := tr.Start(trace.SpanRef{}, "eval")
		if _, _, err := ev.RunQueryStatsWith(mdx.RunContext{Ctx: trace.WithSpan(ctx, root)}, q); err != nil {
			b.Fatal(err)
		}
		root.End()
		lowerMs += tr.StageMs("lower")
		projectMs += tr.StageMs("project")
	}
	b.ReportMetric(lowerMs/float64(b.N), "lower_ms/op")
	b.ReportMetric(projectMs/float64(b.N), "project_ms/op")
}

// BenchmarkPlanHypothetical times two served queries whole, under a
// trace, with the binding's Φ memo cold (dropped before every query, as
// over a freshly published binding) and warm: the plan-heavy query — 30
// changing employees by stratum of moves on the validity-window cube,
// EXTENDED DYNAMIC FORWARD at the quarters — and the broad-scan VISUAL
// department roll-up (DYNAMIC FORWARD, quarters, ConfigDefault). Next
// to ns/op and B/op it reports the "plan" span per op and its share of
// the query, the only share the memo can move.
func BenchmarkPlanHypothetical(b *testing.B) {
	const slicer = "[Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue]"
	vwCfg := workload.ConfigDefault()
	vwCfg.FlatMonths, vwCfg.ChunkDims = true, []int{64, 12, 1, 1, 1, 1, 1}
	for _, shape := range []struct {
		name string
		cfg  workload.WorkforceConfig
		src  func(w *workload.Workforce) string
	}{
		{"plan-heavy", vwCfg, func(w *workload.Workforce) string {
			dept, bind := w.Cube.DimByName(workload.DimDepartment), w.Cube.BindingFor(workload.DimDepartment)
			byMoves := slices.Clone(w.Changing)
			slices.SortStableFunc(byMoves, func(x, y string) int { return w.MovesOf[x] - w.MovesOf[y] })
			var rows []string
			for i := 0; i < 30; i++ {
				inst := bind.InstanceAt(byMoves[i*len(byMoves)/30], 0)
				if inst == dimension.None {
					inst = dept.Instances(byMoves[i*len(byMoves)/30])[0]
				}
				rows = append(rows, "["+dept.Path(inst)+"]")
			}
			return "WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department EXTENDED DYNAMIC FORWARD NONVISUAL " +
				"SELECT {[Period].Levels(0).Members} ON COLUMNS, {" + strings.Join(rows, ", ") + "} ON ROWS FROM [App].[Db] " +
				"WHERE ([Account].[Acct001], [Scenario].[Current], " + slicer + ")"
		}},
		{"broad-scan-rollup", workload.ConfigDefault(), func(*workload.Workforce) string {
			return "WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department DYNAMIC FORWARD VISUAL " +
				"SELECT {[Period].Levels(1).Members} ON COLUMNS, {[Department].Levels(1).Members} ON ROWS FROM [App].[Db] " +
				"WHERE ([Account].[Acct001], [Scenario].[Current], " + slicer + ")"
		}},
	} {
		w, err := workload.NewWorkforce(shape.cfg)
		if err != nil {
			b.Fatal(err)
		}
		w.Cube.Store().(*chunk.Store).Settle()
		q, err := mdx.Parse(shape.src(w))
		if err != nil {
			b.Fatal(err)
		}
		ev, bind := mdx.NewEvaluator(w.Cube), w.Cube.BindingFor(workload.DimDepartment)
		for _, memo := range []string{"cold", "warm"} {
			b.Run(shape.name+"/"+memo, func(b *testing.B) {
				tr := trace.New(0)
				ctx := trace.NewContext(context.Background(), tr)
				var planMs, totalMs float64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if memo == "cold" {
						bind.SetDerived(nil)
					}
					tr.Reset()
					root := tr.Start(trace.SpanRef{}, "eval")
					if _, _, err := ev.RunQueryStatsWith(mdx.RunContext{Ctx: trace.WithSpan(ctx, root)}, q); err != nil {
						b.Fatal(err)
					}
					root.End()
					planMs += tr.StageMs("plan")
					totalMs += tr.StageMs("eval")
				}
				b.ReportMetric(planMs/float64(b.N), "plan_ms/op")
				b.ReportMetric(planMs/totalMs, "plan_share")
			})
		}
	}
}

// BenchmarkLowerChanges runs the end-to-end benchmark's narrow-mix
// "changes" query on ConfigDefault, the whole query under a trace: one
// stable employee moves to another department from April, and the
// receiving department is reported as its accounts by quarter and month.
// Besides ns/op it reports the "lower" span and the "split" span under
// it per op: planning the split should cost the one-row relation, not
// the 4 500-member Department dimension.
func BenchmarkLowerChanges(b *testing.B) {
	w, err := workload.NewWorkforce(workload.ConfigDefault())
	if err != nil {
		b.Fatal(err)
	}
	c := w.Cube
	dept := c.DimByName(workload.DimDepartment)
	top := dept.Member(dept.Root()).Children
	dest := dept.Member(top[len(top)-1])
	var emp *dimension.Member
	for _, id := range dept.Leaves() {
		if m := dept.Member(id); len(dept.Instances(m.Name)) == 1 && m.Parent != dest.ID {
			emp = m
			break
		}
	}
	scen := c.DimByName(workload.DimScenario).Leaf(0).Name
	q, err := mdx.Parse("WITH CHANGES {([" + dept.Path(emp.ID) + "], [" + dept.Path(emp.Parent) + "], [" + dest.Name + "], [Apr])} VISUAL " +
		"SELECT {[Account].Levels(0).Members} ON COLUMNS, {CrossJoin({[" + dest.Name + "]}, {Descendants([Period], 1, SELF_AND_AFTER)})} ON ROWS " +
		"FROM [App].[Db] WHERE ([Scenario].[" + scen + "], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])")
	if err != nil {
		b.Fatal(err)
	}
	ev := mdx.NewEvaluator(c)
	tr := trace.New(0)
	ctx := trace.NewContext(context.Background(), tr)
	var lowerMs, splitMs float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		root := tr.Start(trace.SpanRef{}, "eval")
		if _, _, err := ev.RunQueryStatsWith(mdx.RunContext{Ctx: trace.WithSpan(ctx, root)}, q); err != nil {
			b.Fatal(err)
		}
		root.End()
		lowerMs += tr.StageMs("lower")
		splitMs += tr.StageMs("split")
	}
	b.ReportMetric(lowerMs/float64(b.N), "lower_ms/op")
	b.ReportMetric(splitMs/float64(b.N), "split_ms/op")
}

// BenchmarkDepartmentReport runs the cold-pool workload's query through
// mdx on the ConfigDefault workforce: one department's quarters and
// months by every account, {(Mar), (Sep)} DYNAMIC FORWARD VISUAL, the
// department's employees in scope. "resident" reports Dept07 from the
// in-memory store; "paged" reopens the cube from its segment file
// behind a 1 MiB buffer pool, a tenth of its size, and cycles the
// departments as cold-pool does, so that reads fault. The scan folds
// the relocated cells straight into the grid's accumulators; alloc/op
// shows that no overlay is built.
func BenchmarkDepartmentReport(b *testing.B) {
	w, err := workload.NewWorkforce(workload.ConfigDefault())
	if err != nil {
		b.Fatal(err)
	}
	c := w.Cube
	c.Store().(*chunk.Store).Settle()
	dept := c.DimByName(workload.DimDepartment)
	var queries []*mdx.Query
	for _, d := range dept.Member(dept.Root()).Children {
		q, err := mdx.Parse(departmentReport(dept, d))
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	run := func(b *testing.B, c *cube.Cube, pick func(i int) *mdx.Query) {
		ev := mdx.NewEvaluator(c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ev.RunQueryWith(mdx.RunContext{}, pick(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("resident", func(b *testing.B) {
		q := queries[7]
		run(b, c, func(int) *mdx.Query { return q })
	})
	b.Run("paged", func(b *testing.B) {
		paged, err := workload.NewWorkforce(workload.ConfigDefault())
		if err != nil {
			b.Fatal(err)
		}
		st := paged.Cube.Store().(*chunk.Store)
		st.Settle()
		if err := segment.PageOut(st, b.TempDir()+"/wf.seg", 1<<20); err != nil {
			b.Fatal(err)
		}
		run(b, paged.Cube, func(i int) *mdx.Query { return queries[i%len(queries)] })
	})
}

// BenchmarkBroadScanReport runs the broad-scan workload's report shapes
// through mdx on the ConfigDefault workforce: the leaf report (eight
// departments' employees by month, DYNAMIC FORWARD NONVISUAL) and the
// department roll-up by quarter under STATIC VISUAL, DYNAMIC FORWARD
// VISUAL and STATIC NONVISUAL, each at {(Jan), (Apr), (Jul), (Oct)}.
// "resident" reads the in-memory store; "paged" reopens the cube from
// its segment file behind a 1 MiB buffer pool, a tenth of its size. It
// reports chunks_read/op, spill_faults/op and members_moved/op: most of
// a report's scope are Φ's fixed points, which the engine reads as base
// rows and does not plan, and the scan reads each chunk once. The
// NONVISUAL roll-up reads no relocated cell and moves no member. Each
// query runs under a pooled-size recorder, as whatifd runs it, and the
// benchmark reports its "compile", "assemble" and "scan" spans per op
// (compile_ms/op, assemble_ms/op, scan_ms/op) next to ns/op: the share
// of the query each stage owns.
func BenchmarkBroadScanReport(b *testing.B) {
	const slicer = "[Account].[Acct001], [Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue]"
	with := func(sem, mode string) string {
		return "WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department " + sem + " " + mode + " "
	}
	var depts []string
	for d := 0; d < 8; d++ {
		depts = append(depts, fmt.Sprintf("[Dept%02d].Children", d))
	}
	rollup := "SELECT {[Period].Levels(1).Members} ON COLUMNS, {[Department].Levels(1).Members} ON ROWS FROM [App].[Db] WHERE (" + slicer + ")"
	shapes := []struct{ name, src string }{
		{"leaf-report", with("DYNAMIC FORWARD", "NONVISUAL") + "SELECT {[Period].Levels(0).Members} ON COLUMNS, {" +
			strings.Join(depts, ", ") + "} ON ROWS FROM [App].[Db] WHERE (" + slicer + ")"},
		{"rollup-static-visual", with("STATIC", "VISUAL") + rollup},
		{"rollup-forward-visual", with("DYNAMIC FORWARD", "VISUAL") + rollup},
		{"rollup-static-nonvisual", with("STATIC", "NONVISUAL") + rollup},
	}
	for _, tier := range []string{"resident", "paged"} {
		w, err := workload.NewWorkforce(workload.ConfigDefault())
		if err != nil {
			b.Fatal(err)
		}
		st := w.Cube.Store().(*chunk.Store)
		st.Settle()
		if tier == "paged" {
			if err := segment.PageOut(st, b.TempDir()+"/wf.seg", 1<<20); err != nil {
				b.Fatal(err)
			}
		}
		ev := mdx.NewEvaluator(w.Cube)
		for _, sh := range shapes {
			q, err := mdx.Parse(sh.src)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(tier+"/"+sh.name, func(b *testing.B) {
				var reads, faults, moved int
				var compileMs, assembleMs, scanMs float64
				tr := trace.New(0)
				ctx := trace.NewContext(context.Background(), tr)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr.Reset()
					root := tr.Start(trace.SpanRef{}, "eval")
					_, stats, err := ev.RunQueryStatsWith(mdx.RunContext{Ctx: trace.WithSpan(ctx, root)}, q)
					root.End()
					if err != nil {
						b.Fatal(err)
					}
					reads += stats.ChunksRead
					faults += stats.SpillFaults
					moved += stats.MembersMoved
					compileMs += tr.StageMs("compile")
					assembleMs += tr.StageMs("assemble")
					scanMs += tr.StageMs("scan")
				}
				b.ReportMetric(float64(reads)/float64(b.N), "chunks_read/op")
				b.ReportMetric(float64(faults)/float64(b.N), "spill_faults/op")
				b.ReportMetric(float64(moved)/float64(b.N), "members_moved/op")
				b.ReportMetric(compileMs/float64(b.N), "compile_ms/op")
				b.ReportMetric(assembleMs/float64(b.N), "assemble_ms/op")
				b.ReportMetric(scanMs/float64(b.N), "scan_ms/op")
			})
		}
	}
}

// BenchmarkFormulaReport runs a retail Margin report through mdx: the
// product families by Margin, in the eastern markets, {(Jan)} DYNAMIC
// FORWARD VISUAL, the re-bundled products in scope, over a copy of the
// retail cube chunked so that a chunk spans both regions. Margin is a
// formula rule, so every cell falls back to per-cell evaluation and the
// scan writes an overlay, the one sink that takes every cell the
// relocation table moves — the western markets' too, which no cell
// reads. Compare ns/op, B/op and cells_relocated across a change to the
// scan's filters.
func BenchmarkFormulaReport(b *testing.B) {
	rt, err := workload.NewRetailByTime(workload.RetailConfig{
		Families: 10, ProductsPerFamily: 40, Months: 12, MarketsPerRegion: 8, MovingProducts: 10, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	src := rt.Cube
	extents := make([]int, src.NumDims())
	for d := range extents {
		extents[d] = src.Dim(d).NumLeaves()
	}
	st := chunk.NewStore(chunk.MustGeometry(extents, []int{16, 12, 16, 4}))
	src.Store().NonNull(func(addr []int, v float64) bool {
		st.Set(addr, v)
		return true
	})
	c := cube.NewWithStore(st, src.Dims()...)
	for _, bd := range src.Bindings() {
		if err := c.AddBinding(bd); err != nil {
			b.Fatal(err)
		}
	}
	c.SetRules(src.Rules())
	q, err := mdx.Parse(`WITH PERSPECTIVE {(Jan)} FOR Product DYNAMIC FORWARD VISUAL
SELECT {[Measures].[Margin]} ON COLUMNS, {[Product].Children} ON ROWS
FROM Retail WHERE ([Market].[East])`)
	if err != nil {
		b.Fatal(err)
	}
	ev := mdx.NewEvaluator(c)
	var stats core.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, stats, err = ev.RunQueryStatsWith(mdx.RunContext{}, q); err != nil {
			b.Fatal(err)
		}
	}
	if stats.CellsRelocated == 0 {
		b.Fatalf("the report relocated nothing: %+v", stats)
	}
	b.ReportMetric(float64(stats.CellsRelocated), "cells_relocated")
}

// departmentReport is the text of the cold-pool query over department d.
func departmentReport(dept *dimension.Dimension, d dimension.MemberID) string {
	name := dept.Member(d).Name
	return "WITH PERSPECTIVE {(Mar), (Sep)} FOR Department DYNAMIC FORWARD VISUAL " +
		"SELECT {[Account].Levels(0).Members} ON COLUMNS, {CrossJoin({[" + name + "]}, {Descendants([Period], 1, SELF_AND_AFTER)})} ON ROWS " +
		"FROM [App].[Db] WHERE ([Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])"
}
