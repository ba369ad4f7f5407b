// Package bench regenerates the paper's evaluation figures (§6) as data
// series: query time versus number of perspectives (Fig. 11), versus
// physical separation of related chunks (Fig. 12), and versus number of
// varying member instances in scope (Fig. 13), plus ablations of the
// design choices DESIGN.md calls out. The cmd/benchfig binary prints
// these series; root-level testing.B benchmarks time the same queries.
package bench

import (
	"fmt"
	"time"

	"whatifolap/internal/chunk"
	"whatifolap/internal/core"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/pebble"
	"whatifolap/internal/perspective"
	"whatifolap/internal/simdisk"
	"whatifolap/internal/workload"
)

// monthsPrefix returns the first k month ordinals as a perspective set.
func monthsPrefix(k int) []int {
	ps := make([]int, k)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

// timeIt runs fn reps times and returns the fastest wall time in
// milliseconds (minimum is the standard noise-robust estimator for
// deterministic work).
func timeIt(reps int, fn func() error) (float64, error) {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best) / float64(time.Millisecond), nil
}

// Fig11Row is one point of the Fig. 11 series: elapsed time of the
// three strategies at a given perspective count.
type Fig11Row struct {
	Perspectives int
	MultipleMS   float64 // "Multiple MDX" simulation baseline
	StaticMS     float64 // direct static multi-perspective
	ForwardMS    float64 // direct dynamic forward
	// ChunkReads compares I/O work (simulation vs direct static).
	SimChunkReads, StaticChunkReads int
}

// Fig11 reproduces §6.1: a query over every changing employee, varying
// the number of perspectives from 1 to maxPerspectives, under the three
// strategies of the paper's figure.
func Fig11(w *workload.Workforce, maxPerspectives, reps int) ([]Fig11Row, error) {
	if maxPerspectives > w.Config.Months {
		maxPerspectives = w.Config.Months
	}
	e, err := core.New(w.Cube, workload.DimDepartment)
	if err != nil {
		return nil, err
	}
	members := w.Changing
	var rows []Fig11Row
	for k := 1; k <= maxPerspectives; k++ {
		ps := monthsPrefix(k)
		row := Fig11Row{Perspectives: k}

		var simStats, staticStats core.Stats
		row.MultipleMS, err = timeIt(reps, func() error {
			v, err := e.SimulateMultiMDX(members, ps, perspective.NonVisual)
			if err == nil {
				simStats = v.Stats
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		row.StaticMS, err = timeIt(reps, func() error {
			v, err := e.ExecPerspective(core.PerspectiveQuery{
				Members: members, Perspectives: ps,
				Sem: perspective.Static, Mode: perspective.NonVisual,
			})
			if err == nil {
				staticStats = v.Stats
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		row.ForwardMS, err = timeIt(reps, func() error {
			_, err := e.ExecPerspective(core.PerspectiveQuery{
				Members: members, Perspectives: ps,
				Sem: perspective.Forward, Mode: perspective.NonVisual,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		row.SimChunkReads = simStats.ChunksRead
		row.StaticChunkReads = staticStats.ChunksRead
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig12Row is one point of the co-location series.
type Fig12Row struct {
	// Multiple is the separation multiplier (1x..5x of the base
	// separation).
	Multiple int
	// SeparationChunks is the distance between the two related chunks.
	SeparationChunks int
	// TotalChunks is the cube's materialized chunk count (the cube
	// grows as padding is inserted, paper: 20 G → 27.5 G).
	TotalChunks int
	// DiskMS is the seek model's price of the query's recorded read order.
	DiskMS float64
	// WallMS is the measured in-memory execution time.
	WallMS float64
}

// Fig12Config sizes the co-location experiment.
type Fig12Config struct {
	// BaseSeparation is the 1x distance between the two instances'
	// chunks (the paper's 719,928; scaled by default).
	BaseSeparation int
	// MaxMultiple is the largest multiplier (paper: 5).
	MaxMultiple int
	// Months is the period extent.
	Months int
	// Model is the seek-cost model that prices the recorded read order.
	Model simdisk.Model
}

// Fig12Defaults returns a laptop-scale configuration whose seek curve
// saturates inside the sweep, like the paper's.
func Fig12Defaults() Fig12Config {
	return Fig12Config{
		BaseSeparation: 2000,
		MaxMultiple:    5,
		Months:         12,
		// The cap is reached between the 3x and 4x points, so the curve
		// rises and then stabilizes inside the sweep like the paper's.
		Model: simdisk.Model{Base: 0.05, PerChunk: 0.002, SeekCap: 13.0, Transfer: 0.02},
	}
}

// Fig12 reproduces §6.2: a dynamic forward query over a single employee
// with two instances, while the physical separation between the
// instances' chunks is grown in multiples of the base separation. Query
// time rises with separation and then stabilizes once seek cost
// saturates. The store's read hook records the last rep's read order,
// which cfg.Model prices once the query has run.
func Fig12(cfg Fig12Config, reps int) ([]Fig12Row, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	var rows []Fig12Row
	for mult := 1; mult <= cfg.MaxMultiple; mult++ {
		c, err := buildSeparationCube(cfg.BaseSeparation*mult, cfg.Months)
		if err != nil {
			return nil, err
		}
		e, err := core.New(c, "Department")
		if err != nil {
			return nil, err
		}
		q := core.PerspectiveQuery{
			Members:      []string{"EmpX"},
			Perspectives: []int{0, 3, 6, 9},
			Sem:          perspective.Forward,
			Mode:         perspective.NonVisual,
		}
		st := c.Store().(*chunk.Store)
		var order []int
		st.SetReadHook(func(id int) { order = append(order, id) })
		wall, err := timeIt(reps, func() error {
			order = order[:0]
			_, err := e.ExecPerspective(q)
			return err
		})
		st.SetReadHook(nil)
		if err != nil {
			return nil, err
		}
		diskMS, _ := cfg.Model.Cost(order)
		rows = append(rows, Fig12Row{
			Multiple:         mult,
			SeparationChunks: cfg.BaseSeparation * mult,
			TotalChunks:      st.NumChunks(),
			DiskMS:           diskMS,
			WallMS:           wall,
		})
	}
	return rows, nil
}

// buildSeparationCube builds a 3-dimensional cube (Department/employee,
// Period, Account) in which employee EmpX has two instances whose rows
// sit `separation` department-chunks apart, with padding employees
// materializing every chunk in between (the paper inserts data and
// reorganizes the cube to control separation).
func buildSeparationCube(separation, months int) (*cube.Cube, error) {
	const rowsPerChunk = 1
	dept := dimension.New("Department", false)
	dept.MustAdd("", "DeptA")
	dept.MustAdd("", "DeptPad")
	dept.MustAdd("", "DeptB")
	dept.MustAdd("DeptA", "EmpX") // ordinal 0
	padCount := separation - 1
	for i := 0; i < padCount; i++ {
		dept.MustAdd("DeptPad", fmt.Sprintf("Pad%06d", i))
	}
	dept.MustAdd("DeptB", "EmpX") // last ordinal

	period := dimension.New("Period", true)
	for m := 0; m < months; m++ {
		period.MustAdd("", fmt.Sprintf("M%02d", m+1))
	}
	acct := dimension.New("Account", false)
	acct.MarkMeasure()
	acct.MustAdd("", "Salary")

	extents := []int{dept.NumLeaves(), months, 1}
	st := chunk.NewStore(chunk.MustGeometry(extents, []int{rowsPerChunk, months, 1}))
	c := cube.NewWithStore(st, dept, period, acct)

	b := dimension.NewBinding(dept, period)
	half := months / 2
	var first, second []int
	for m := 0; m < months; m++ {
		if m < half {
			first = append(first, m)
		} else {
			second = append(second, m)
		}
	}
	b.SetVS(dept.MustLookup("DeptA/EmpX"), first...)
	b.SetVS(dept.MustLookup("DeptB/EmpX"), second...)
	if err := c.AddBinding(b); err != nil {
		return nil, err
	}

	// Data: EmpX per valid month; every padding row gets one cell so
	// its chunk is materialized on "disk".
	a := dept.MustLookup("DeptA/EmpX")
	z := dept.MustLookup("DeptB/EmpX")
	for _, m := range first {
		c.SetLeaf([]int{dept.Member(a).LeafOrdinal, m, 0}, 100)
	}
	for _, m := range second {
		c.SetLeaf([]int{dept.Member(z).LeafOrdinal, m, 0}, 100)
	}
	for i := 0; i < padCount; i++ {
		o := dept.MustLookup("DeptPad/Pad" + fmt.Sprintf("%06d", i))
		c.SetLeaf([]int{dept.Member(o).LeafOrdinal, 0, 0}, 1)
	}
	return c, nil
}

// Fig13Row is one point of the varying-member series.
type Fig13Row struct {
	// Members is the number of changing employees in the query scope.
	Members int
	// WallMS is the measured execution time.
	WallMS float64
	// Instances is the number of member instances the engine touched.
	Instances int
	// ChunksRead is the engine's I/O work.
	ChunksRead int
}

// Fig13 reproduces §6.3: a static query with four perspectives over
// employees with four reporting-structure changes, with the scope grown
// from step to maxMembers in increments of step.
func Fig13(w *workload.Workforce, step, maxMembers, reps int) ([]Fig13Row, error) {
	e, err := core.New(w.Cube, workload.DimDepartment)
	if err != nil {
		return nil, err
	}
	pool := w.Changing
	if maxMembers > len(pool) {
		maxMembers = len(pool)
	}
	ps := []int{0, 3, 6, 9} // Jan, Apr, Jul, Oct (Fig. 10(c))
	var rows []Fig13Row
	for n := step; n <= maxMembers; n += step {
		members := pool[:n]
		var stats core.Stats
		wall, err := timeIt(reps, func() error {
			v, err := e.ExecPerspective(core.PerspectiveQuery{
				Members: members, Perspectives: ps,
				Sem: perspective.Static, Mode: perspective.NonVisual,
			})
			if err == nil {
				stats = v.Stats
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig13Row{
			Members:    n,
			WallMS:     wall,
			Instances:  stats.SourceInstances,
			ChunksRead: stats.ChunksRead,
		})
	}
	return rows, nil
}

// PebbleRow compares read-order policies on one query.
type PebbleRow struct {
	Order      string
	PeakChunks int
	DiskMS     float64
	SeekChunks int
}

// AblationPebbling compares the pebbling heuristic against sequential
// read orders on a forward query over all changing employees: peak
// co-resident chunks (the §5.2 objective) and the modeled disk cost of
// the read order the store's read hook recorded.
func AblationPebbling(w *workload.Workforce, model simdisk.Model) ([]PebbleRow, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	st := w.Cube.Store().(*chunk.Store)
	var rows []PebbleRow
	for _, order := range []core.ReadOrder{core.OrderPebbling, core.OrderVaryingFirst,
		core.OrderVaryingLast, core.OrderCanonical} {
		e, err := core.New(w.Cube, workload.DimDepartment)
		if err != nil {
			return nil, err
		}
		e.SetReadOrder(order)
		var ids []int
		st.SetReadHook(func(id int) { ids = append(ids, id) })
		v, err := e.ExecPerspective(core.PerspectiveQuery{
			Members:      w.Changing,
			Perspectives: []int{0, 6},
			Sem:          perspective.Forward,
			Mode:         perspective.NonVisual,
		})
		st.SetReadHook(nil)
		if err != nil {
			return nil, err
		}
		diskMS, seek := model.Cost(ids)
		rows = append(rows, PebbleRow{
			Order:      order.String(),
			PeakChunks: v.Stats.PeakResidentChunks,
			DiskMS:     diskMS,
			SeekChunks: seek,
		})
	}
	return rows, nil
}

// ModeRow compares visual and non-visual evaluation cost on aggregate
// cells.
type ModeRow struct {
	Mode   string
	WallMS float64
}

// AblationMode times the evaluation of quarter-level aggregates for the
// changing employees under both modes: visual re-aggregates over the
// perspective cube, non-visual reads the input scope.
func AblationMode(w *workload.Workforce, employees, reps int) ([]ModeRow, error) {
	e, err := core.New(w.Cube, workload.DimDepartment)
	if err != nil {
		return nil, err
	}
	if employees > len(w.Changing) {
		employees = len(w.Changing)
	}
	members := w.Changing[:employees]
	dept := w.Cube.DimByName(workload.DimDepartment)
	period := w.Cube.DimByName(workload.DimPeriod)
	quarters := period.LevelMembers(1)
	var rows []ModeRow
	for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
		v, err := e.ExecPerspective(core.PerspectiveQuery{
			Members: members, Perspectives: []int{0, 6},
			Sem: perspective.Forward, Mode: mode,
		})
		if err != nil {
			return nil, err
		}
		ids := make([]dimension.MemberID, w.Cube.NumDims())
		for i := range ids {
			ids[i] = w.Cube.Dim(i).Root()
		}
		// Pin the single-member dimensions to leaves so only Department
		// and Period aggregate.
		ids[2] = w.Cube.Dim(2).Leaf(0).ID
		ids[3] = w.Cube.Dim(3).Leaf(0).ID
		ids[4] = w.Cube.Dim(4).Leaf(0).ID
		ids[5] = w.Cube.Dim(5).Leaf(0).ID
		ids[6] = w.Cube.Dim(6).Leaf(0).ID
		wall, err := timeIt(reps, func() error {
			for _, name := range members {
				for _, inst := range dept.Instances(name) {
					for _, q := range quarters {
						ids[0] = inst
						ids[1] = q
						if _, err := v.Cell(ids); err != nil {
							return err
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ModeRow{Mode: mode.String(), WallMS: wall})
	}
	return rows, nil
}

// RepRow compares chunk representations.
type RepRow struct {
	Representation string
	StoreBytes     int
	QueryMS        float64
}

// AblationChunkRep compares memory footprint and query time of the
// as-loaded (auto dense/sparse) store against a fully sparse one. On
// dense workloads the sparse encoding costs 12 bytes per cell against
// the dense array's 8, so "compress everything" can lose on both axes —
// the reason the engine only compresses chunks under the threshold.
func AblationChunkRep(w *workload.Workforce, reps int) ([]RepRow, error) {
	measure := func(label string, c *cube.Cube) (RepRow, error) {
		e, err := core.New(c, workload.DimDepartment)
		if err != nil {
			return RepRow{}, err
		}
		wall, err := timeIt(reps, func() error {
			_, err := e.ExecPerspective(core.PerspectiveQuery{
				Members: w.Changing, Perspectives: []int{0, 6},
				Sem: perspective.Forward, Mode: perspective.NonVisual,
			})
			return err
		})
		if err != nil {
			return RepRow{}, err
		}
		return RepRow{
			Representation: label,
			StoreBytes:     c.Store().(*chunk.Store).MemBytes(),
			QueryMS:        wall,
		}, nil
	}
	auto, err := measure("auto (dense when >25% full)", w.Cube)
	if err != nil {
		return nil, err
	}
	sparse := w.Cube.Clone()
	sparse.Store().(*chunk.Store).ForceSparseAll()
	comp, err := measure("forced sparse", sparse)
	if err != nil {
		return nil, err
	}
	return []RepRow{auto, comp}, nil
}

// RleScanRow is one representation's point of the run-encoding figure:
// resident store footprint and relocation-scan throughput of the same
// forward query over a validity-window cube (FlatMonths workforce,
// period as the fastest in-chunk dimension, so a stable instance's
// twelve months form one value run).
type RleScanRow struct {
	Representation string
	// StoreBytes is the resident footprint of the base store under this
	// representation.
	StoreBytes int
	// Chunks counts base chunks per representation kind.
	DenseChunks, SparseChunks, RunChunks int
	// WallMS is the whole query's wall time; ScanMS the scan stage's
	// (chunk reads + relocation) — the part the representation changes.
	// Planning work is identical across rows and dominates WallMS at
	// this scale, so throughput is computed over ScanMS.
	WallMS         float64
	ScanMS         float64
	CellsRelocated int
	// CellsPerSec is relocation throughput: CellsRelocated per second
	// of scan-stage time.
	CellsPerSec float64
}

// RleScanConfig returns the validity-window cube shape the RLE figure
// runs on: ConfigDefault values with FlatMonths (constant value across
// each instance's validity window) and a period-fastest chunk layout —
// one department row of 64 employees × 12 months per chunk — so runs
// extend along the validity window.
func RleScanConfig() workload.WorkforceConfig {
	cfg := workload.ConfigDefault()
	cfg.FlatMonths = true
	cfg.ChunkDims = []int{64, 12, 1, 1, 1, 1, 1}
	return cfg
}

// RleScan measures the scan by source representation: the same serial
// forward query over every changing employee at four perspectives,
// against the cube stored as-loaded (auto dense/sparse), forced sparse,
// and run-encoded. All three go through the slab kernel; what differs is
// what a slab carries — its cells (dense, sparse: one bulk cell write
// per slab) or one value (run-encoded: slabs coalesce into overlay run
// writes) — and how many bytes the store holds.
func RleScan(w *workload.Workforce, reps int) ([]RleScanRow, error) {
	measure := func(label string, c *cube.Cube) (RleScanRow, error) {
		st := c.Store().(*chunk.Store)
		e, err := core.New(c, workload.DimDepartment)
		if err != nil {
			return RleScanRow{}, err
		}
		var stats core.Stats
		scanMS := 0.0
		wall, err := timeIt(reps, func() error {
			v, err := e.ExecPerspective(core.PerspectiveQuery{
				Members: w.Changing, Perspectives: []int{0, 3, 6, 9},
				Sem: perspective.Forward, Mode: perspective.NonVisual,
			})
			if err == nil {
				stats = v.Stats
				if scanMS == 0 || v.Stats.ScanMs < scanMS {
					scanMS = v.Stats.ScanMs
				}
			}
			return err
		})
		if err != nil {
			return RleScanRow{}, err
		}
		row := RleScanRow{
			Representation: label,
			StoreBytes:     st.MemBytes(),
			WallMS:         wall,
			ScanMS:         scanMS,
			CellsRelocated: stats.CellsRelocated,
		}
		row.DenseChunks, row.SparseChunks, row.RunChunks = countReps(st)
		if scanMS > 0 {
			row.CellsPerSec = float64(stats.CellsRelocated) / (scanMS / 1000)
		}
		return row, nil
	}
	auto, err := measure("auto (dense when >25% full)", w.Cube)
	if err != nil {
		return nil, err
	}
	sparseCube := w.Cube.Clone()
	sparseCube.Store().(*chunk.Store).ForceSparseAll()
	sparse, err := measure("forced sparse", sparseCube)
	if err != nil {
		return nil, err
	}
	rleCube := w.Cube.Clone()
	rleCube.Store().(*chunk.Store).Settle()
	rle, err := measure("run-encoded", rleCube)
	if err != nil {
		return nil, err
	}
	return []RleScanRow{auto, sparse, rle}, nil
}

// PlanCostRow is one point of the planning-cost figure: what planning a
// query costs against what scanning for it costs, at one scope size.
type PlanCostRow struct {
	Members        int
	RelevantChunks int
	MergeEdges     int
	// PlanMS is the whole planning stage (relocation tables, merge
	// graph, read schedule, merge groups); PebbleMS the pebbling
	// heuristic alone on the plan's merge graph, rebuilt from its
	// adjacency; ScanMS the executed scan stage.
	PlanMS, PebbleMS, ScanMS float64
}

// PlanCost measures planning against scanning on extended-forward
// queries over the first k changing employees for each k in scopes (4
// perspectives {Jan,Apr,Jul,Oct}, serial). The target it tracks is
// plan_ms < scan_ms: the §5.2 heuristic exists to keep few chunks
// resident, not to dominate the query. It uses only what the engine
// exposed before the dense planner too, so the same code records the
// baseline rows at an older commit.
func PlanCost(w *workload.Workforce, scopes []int, reps int) ([]PlanCostRow, error) {
	e, err := core.New(w.Cube, workload.DimDepartment)
	if err != nil {
		return nil, err
	}
	var rows []PlanCostRow
	for _, k := range scopes {
		q := core.PerspectiveQuery{
			Members: w.Changing[:min(k, len(w.Changing))], Perspectives: []int{0, 3, 6, 9},
			Sem: perspective.ExtendedForward, Mode: perspective.NonVisual,
		}
		var plan *core.PhysicalPlan
		planMS, err := timeIt(reps, func() (err error) {
			plan, err = e.PlanPerspective(q)
			return err
		})
		if err != nil {
			return nil, err
		}
		row := PlanCostRow{Members: len(q.Members), RelevantChunks: plan.Stats.RelevantChunks,
			MergeEdges: plan.Stats.MergeEdges, PlanMS: planMS}
		for i := 0; i < reps; i++ {
			g := pebble.NewGraph()
			for _, id := range plan.Schedule {
				g.AddNode(id)
			}
			for id, nbs := range plan.Neighbors {
				for _, nb := range nbs {
					g.AddEdge(id, nb)
				}
			}
			start := time.Now()
			pebble.HeuristicPebble(g)
			if ms := float64(time.Since(start)) / float64(time.Millisecond); i == 0 || ms < row.PebbleMS {
				row.PebbleMS = ms
			}
			v, err := e.ExecPerspective(q)
			if err != nil {
				return nil, err
			}
			if i == 0 || v.Stats.ScanMs < row.ScanMS {
				row.ScanMS = v.Stats.ScanMs
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// countReps tallies a store's chunks by representation.
func countReps(st *chunk.Store) (dense, sparse, runs int) {
	for _, id := range st.ChunkIDs() {
		switch c := st.ReadChunk(id); {
		case c == nil:
		case c.Rep() == chunk.Dense:
			dense++
		case c.Rep() == chunk.RunEncoded:
			runs++
		default:
			sparse++
		}
	}
	return dense, sparse, runs
}
