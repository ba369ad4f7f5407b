package bench

import (
	"fmt"
	"math"
	"runtime"

	"whatifolap/internal/chunk"
	"whatifolap/internal/core"
	"whatifolap/internal/perspective"
	"whatifolap/internal/trace"
	"whatifolap/internal/workload"
)

// Kernel is a prepared relocation-kernel runner. NewKernel plans the
// standard workload query (dynamic forward over every changing
// employee, 4 perspectives) and materializes its relocation stream —
// the (destination address, value) writes the scan emits — once.
// RunChunkNative then replays the identical stream into a chunk.Overlay
// one cell at a time — integer (chunkID, offset) arithmetic, written in
// place — and RunSlab the way the engine's scan writes it: grouped into
// the slabs the cells left their source chunks in, one
// Overlay.SetCellsAt per slab. The comparison isolates the overlay
// write path.
type Kernel struct {
	geom *chunk.Geometry
	// slabs is the stream regrouped by destination slab, in stream
	// order: slab i writes slabCells[i*slabLen:(i+1)*slabLen] (Null where
	// the stream has no cell) at offset slabs[i].off of chunk slabs[i].id.
	slabLen   int
	slabs     []slabWrite
	slabCells []float64
	// The relocation stream, flattened: addrs holds cells*dims ordinals,
	// vals the cell values.
	addrs []int
	vals  []float64
	// chunkEnds marks where the stream crosses a source-chunk boundary
	// (exclusive end index into vals per contributing chunk), so traced
	// replays can mirror the engine's per-chunk span granularity.
	chunkEnds []int
}

// slabWrite addresses one slab of the regrouped stream.
type slabWrite struct{ id, off int }

// NewKernel plans the standard workload query against w and captures
// its relocation stream.
func NewKernel(w *workload.Workforce) (*Kernel, error) {
	e, err := core.New(w.Cube, workload.DimDepartment)
	if err != nil {
		return nil, err
	}
	plan, err := e.PlanPerspective(core.PerspectiveQuery{
		Members: w.Changing, Perspectives: []int{0, 3, 6, 9},
		Sem: perspective.Forward, Mode: perspective.NonVisual,
	})
	if err != nil {
		return nil, err
	}
	st, ok := w.Cube.Store().(*chunk.Store)
	if !ok {
		return nil, fmt.Errorf("bench: workforce cube store is %T, want *chunk.Store", w.Cube.Store())
	}
	b := e.Binding()
	vi := w.Cube.DimIndex(b.Varying.Name())
	pi := w.Cube.DimIndex(b.Param.Name())

	g := st.Geometry()
	k := &Kernel{geom: g, slabLen: min(g.OffsetStride(vi), g.OffsetStride(pi))}
	ccoord := make([]int, g.NumDims())
	addr := make([]int, g.NumDims())
	for _, id := range plan.Schedule {
		ch := st.PeekChunk(id)
		if ch == nil {
			continue
		}
		g.CoordOf(id, ccoord)
		ch.ForEach(func(off int, v float64) bool {
			g.Join(ccoord, off, addr)
			row := plan.Target.Row(addr[vi])
			if row == nil {
				return true
			}
			dst := row[addr[pi]]
			if dst < 0 {
				return true
			}
			k.addrs = append(k.addrs, addr...)
			moved := k.addrs[len(k.addrs)-g.NumDims():]
			moved[vi] = dst
			k.vals = append(k.vals, v)
			// A move changes only the varying digit, so cells that shared a
			// source slab share a destination slab and arrive back to back.
			id, doff := g.SplitID(moved)
			start := doff - doff%k.slabLen
			if n := len(k.slabs); n == 0 || k.slabs[n-1] != (slabWrite{id, start}) {
				k.slabs = append(k.slabs, slabWrite{id, start})
				for i := 0; i < k.slabLen; i++ {
					k.slabCells = append(k.slabCells, math.NaN())
				}
			}
			k.slabCells[len(k.slabCells)-k.slabLen+doff-start] = v
			return true
		})
		if n := len(k.chunkEnds); len(k.vals) > 0 && (n == 0 || k.chunkEnds[n-1] < len(k.vals)) {
			k.chunkEnds = append(k.chunkEnds, len(k.vals))
		}
	}
	if len(k.vals) == 0 {
		return nil, fmt.Errorf("bench: kernel relocated no cells")
	}
	return k, nil
}

// Cells returns the number of relocated cells per run.
func (k *Kernel) Cells() int { return len(k.vals) }

// RunChunkNative replays the relocation stream into a fresh
// chunk-grained Overlay and returns the number of cells written.
func (k *Kernel) RunChunkNative() int {
	return k.replayOverlay(chunk.NewOverlay(k.geom))
}

// RunSlab replays the relocation stream, a slab per write, into a fresh
// Overlay and returns the number of cells written.
func (k *Kernel) RunSlab() int { return k.replaySlabs(chunk.NewOverlay(k.geom)) }

// NewOverlay returns an empty destination overlay matching the kernel's
// geometry, for steady-state (warm-destination) replays.
func (k *Kernel) NewOverlay() *chunk.Overlay { return chunk.NewOverlay(k.geom) }

// Replay replays the relocation stream into the given (possibly warm)
// overlay — the steady-state untraced baseline for BenchmarkTraceOff.
func (k *Kernel) Replay(ov *chunk.Overlay) int { return k.replayOverlay(ov) }

// ReplayTraced replays the relocation stream with the engine's span
// instrumentation pattern: one span per source-chunk segment, annotated
// with its cell count. A nil recorder exercises exactly the no-op path
// the engine takes when tracing is off, so benchmarking
// ReplayTraced(nil, ...) against Replay bounds the cost the disabled
// hooks add to the hot write loop.
func (k *Kernel) ReplayTraced(tr *trace.Trace, parent trace.SpanRef, ov *chunk.Overlay) int {
	d := k.geom.NumDims()
	start := 0
	for _, end := range k.chunkEnds {
		sp := tr.Start(parent, "chunk")
		for i := start; i < end; i++ {
			ov.Set(k.addrs[i*d:(i+1)*d], k.vals[i])
		}
		sp.Int("cells", int64(end-start))
		sp.End()
		start = end
	}
	return len(k.vals)
}

func (k *Kernel) replayOverlay(ov *chunk.Overlay) int {
	d := k.geom.NumDims()
	for i, v := range k.vals {
		ov.Set(k.addrs[i*d:(i+1)*d], v)
	}
	return len(k.vals)
}

func (k *Kernel) replaySlabs(ov *chunk.Overlay) int {
	n := 0
	for i, w := range k.slabs {
		n += ov.SetCellsAt(w.id, w.off, k.slabCells[i*k.slabLen:(i+1)*k.slabLen])
	}
	return n
}

// KernelRow is one line of the overlay-kernel comparison.
type KernelRow struct {
	Kernel      string
	Cells       int
	WallMS      float64
	CellsPerSec float64
	// AllocsPerCell amortizes a full run — including building the
	// destination store from scratch — over the relocated cells.
	AllocsPerCell float64
	// SteadyAllocsPerCell replays the stream into an already-warm
	// destination: the per-cell write cost once destination chunks
	// exist: 0 for both paths (integer arithmetic only).
	SteadyAllocsPerCell float64
}

// RelocationKernel compares the overlay write paths on the standard
// workload query's relocation stream: wall time (fastest of reps),
// write throughput, and heap allocations per relocated cell, fresh and
// steady-state.
func RelocationKernel(w *workload.Workforce, reps int) ([]KernelRow, error) {
	k, err := NewKernel(w)
	if err != nil {
		return nil, err
	}
	warmOv, warmSlab := chunk.NewOverlay(k.geom), chunk.NewOverlay(k.geom)
	variants := []struct {
		name   string
		run    func() int
		replay func()
	}{
		{"chunk-native", k.RunChunkNative, func() { k.replayOverlay(warmOv) }},
		{"slab", k.RunSlab, func() { k.replaySlabs(warmSlab) }},
	}
	var rows []KernelRow
	for _, v := range variants {
		cells := v.run() // warm caches
		wall, err := timeIt(reps, func() error { v.run(); return nil })
		if err != nil {
			return nil, err
		}
		row := KernelRow{
			Kernel:              v.name,
			Cells:               cells,
			WallMS:              wall,
			AllocsPerCell:       allocsPerRun(5, func() { v.run() }) / float64(cells),
			SteadyAllocsPerCell: allocsPerRun(5, v.replay) / float64(cells),
		}
		if wall > 0 {
			row.CellsPerSec = float64(cells) / (wall / 1000)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// allocsPerRun counts fn's heap allocations averaged over runs, after
// one warm-up call (the library-code analogue of testing.AllocsPerRun).
func allocsPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs)
}
