package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	olap "whatifolap"
	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/segment"
	"whatifolap/internal/server"
	"whatifolap/internal/workload"
)

// cubeName is the catalog name every workload serves its cube under.
const cubeName = "wf"

// scale sizes a run. The committed numbers all come from "default";
// "tiny" exists so the smoke test can run every workload in seconds.
type scale struct {
	config func() workload.WorkforceConfig
	// poolBudget is cold-pool's resident byte budget: about a tenth of
	// the cube, so most chunk reads fault.
	poolBudget int
	warmup     time.Duration
	// scopeSize is the number of changing employees a plan-heavy query
	// names; reportDepts the departments in a broad-scan leaf report.
	scopeSize   int
	reportDepts int
	// setups is how many times a run builds its fixture; setup_s is the
	// median, the last fixture serves the run.
	setups int
	// tracedOps is the least number of ops the traced pass replays,
	// whatever its time budget.
	tracedOps int
}

// verifiedQueries is the number of served queries a run checks against
// the independent evaluator.
const verifiedQueries = 8

var scales = map[string]scale{
	"default": {config: workload.ConfigDefault, poolBudget: 1 << 20, warmup: time.Second,
		scopeSize: 30, reportDepts: 8, setups: 7, tracedOps: 6},
	"tiny": {config: workload.ConfigTiny, poolBudget: 32 << 10, warmup: 50 * time.Millisecond,
		scopeSize: 5, reportDepts: 3, setups: 2, tracedOps: 40},
}

// cubeShape and tier are the two fixture properties a workload picks.
type cubeShape int

const (
	// shapeWF is ConfigDefault as generated: quarter-deep chunks, dense.
	shapeWF cubeShape = iota
	// shapeVW is the validity-window shape of BENCH_rle_scan: constant
	// values across each validity window and year-deep, one-account
	// chunks, so every chunk run-encodes and the merge graph has one
	// group per (account, scenario).
	shapeVW
)

type tier int

const (
	// tierResident serves the generated cube from memory.
	tierResident tier = iota
	// tierPersisted attaches a Persister, as whatifd -data-dir does:
	// published versions are written back as segment files.
	tierPersisted
	// tierColdPool persists the cube, then reopens the segment the way
	// Persister.openVersion does but with scale.poolBudget instead of
	// DefaultResidentBudget, which exceeds any cube this host can hold.
	tierColdPool
)

// cubeSeed generates every fixture cube. The run's seed drives the op
// sequences and not the cube: which employees move where shapes the
// merge graph, and the same queries cost the planner up to a fifth more
// or less on a differently seeded cube, which would show as run-to-run
// spread and hide a real change of that size.
const cubeSeed = 1

func workforceConfig(sc scale, shape cubeShape) workload.WorkforceConfig {
	cfg := sc.config()
	cfg.Seed = cubeSeed
	if shape == shapeVW {
		cfg.FlatMonths = true
		cfg.ChunkDims = []int{64, 12, 1, 1, 1, 1, 1}
	}
	return cfg
}

// employee is one base member of the Department dimension.
type employee struct {
	name string
	// path is the instance valid in January, e.g. Dept03/Emp00012.
	path     string
	dept     int
	changing bool
	moves    int
}

// cubeInfo is what the op generators know about the cube: names only,
// so a fixture can drop the generated cube once it is served.
type cubeInfo struct {
	depts     []string
	emps      []employee
	changing  []int
	accounts  []string
	months    []string
	scenarios []string
	// deptScope lists, per department, the base members its leaves
	// cover — the scope the engine derives from a department on an
	// axis. allScope is the same for every department in turn.
	deptScope [][]string
	allScope  []string
	cells     int
}

func describeCube(w *workload.Workforce) *cubeInfo {
	c := w.Cube
	dept := c.DimByName(workload.DimDepartment)
	b := c.BindingFor(workload.DimDepartment)
	info := &cubeInfo{cells: c.NumCells()}
	leafNames := func(dim string) []string {
		d := c.DimByName(dim)
		out := make([]string, d.NumLeaves())
		for i := range out {
			out[i] = d.Leaf(i).Name
		}
		return out
	}
	info.accounts = leafNames(workload.DimAccount)
	info.months = leafNames(workload.DimPeriod)
	info.scenarios = leafNames(workload.DimScenario)

	deptIdx := map[string]int{}
	seenAll := map[string]bool{}
	for _, id := range dept.Member(dept.Root()).Children {
		deptIdx[dept.Member(id).Name] = len(info.depts)
		info.depts = append(info.depts, dept.Member(id).Name)
		var scope []string
		seen := map[string]bool{}
		for _, o := range dept.LeafDescendants(id) {
			name := dept.Leaf(o).Name
			if !seen[name] {
				seen[name] = true
				scope = append(scope, name)
			}
			if !seenAll[name] {
				seenAll[name] = true
				info.allScope = append(info.allScope, name)
			}
		}
		info.deptScope = append(info.deptScope, scope)
	}
	for e := 0; e < w.Config.Employees; e++ {
		name := fmt.Sprintf("Emp%05d", e)
		inst := b.InstanceAt(name, 0)
		if inst == dimension.None {
			inst = dept.Instances(name)[0]
		}
		emp := employee{name: name, path: dept.Path(inst), changing: w.MovesOf[name] > 0, moves: w.MovesOf[name]}
		emp.dept = deptIdx[dept.Member(dept.Member(inst).Parent).Name]
		if emp.changing {
			info.changing = append(info.changing, e)
		}
		info.emps = append(info.emps, emp)
	}
	return info
}

// setupTimes are the parts of one set-up the per-layer table reports.
type setupTimes struct {
	genMs, encodeRunsMs float64
}

// fixture is one running whatifd-equivalent: catalog, server and a
// loopback listener, wired as cmd/whatifd wires them by default.
type fixture struct {
	cfg     workload.WorkforceConfig
	info    *cubeInfo
	times   setupTimes
	catalog *server.Catalog
	svc     *server.Server
	handler http.Handler
	baseURL string
	// dataDir is empty for resident workloads.
	dataDir string

	httpSrv *http.Server
	served  chan error
	seg     *segment.File
}

// setUp builds the cube, publishes it on the workload's storage tier,
// runs whatifd's startup run-encoding sweep and starts serving.
// tmpRoot is where a data directory, if the tier needs one, is made.
func setUp(sc scale, shape cubeShape, t tier, tmpRoot string) (fx *fixture, err error) {
	fx = &fixture{cfg: workforceConfig(sc, shape)}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()

	start := time.Now()
	w, err := workload.NewWorkforce(fx.cfg)
	if err != nil {
		return fx, err
	}
	fx.times.genMs = msSince(start)
	fx.info = describeCube(w)

	fx.catalog = server.NewCatalog()
	if t == tierResident {
		if err := fx.catalog.Register(cubeName, w.Cube); err != nil {
			return fx, err
		}
	} else {
		if fx.dataDir, err = os.MkdirTemp(tmpRoot, "data-"); err != nil {
			return fx, err
		}
		p, err := server.OpenPersister(fx.dataDir, false)
		if err != nil {
			return fx, err
		}
		published := fx.catalog
		if t == tierColdPool {
			published = server.NewCatalog()
		}
		published.SetPersister(p)
		if err := published.Register(cubeName, w.Cube); err != nil {
			return fx, err
		}
		// whatifd does not wait for the first write-back; the benchmark
		// does, so that the timed window starts from a quiet server.
		if err := p.Flush(); err != nil {
			return fx, err
		}
		if t == tierColdPool {
			cb, err := fx.reopen(sc.poolBudget)
			if err != nil {
				return fx, err
			}
			if err := fx.catalog.RegisterVersion(cubeName, 1, cb); err != nil {
				return fx, err
			}
		}
	}

	encodeStart := time.Now()
	snap, err := fx.catalog.Acquire(cubeName)
	if err != nil {
		return fx, err
	}
	_, err = olap.EncodeRuns(snap.Cube)
	snap.Release()
	if err != nil {
		return fx, err
	}
	fx.times.encodeRunsMs = msSince(encodeStart)

	// Everything not set is the daemon's flag default.
	fx.svc = server.New(fx.catalog, server.Config{
		CacheBytes:     server.DefaultCacheBytes,
		DefaultTimeout: 30 * time.Second,
		SlowQueryMs:    server.DefaultSlowQueryMs,
	})
	fx.handler = fx.svc.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fx, err
	}
	fx.baseURL = "http://" + ln.Addr().String()
	fx.httpSrv = &http.Server{Handler: fx.handler}
	fx.served = make(chan error, 1)
	go func() { fx.served <- fx.httpSrv.Serve(ln) }()
	return fx, nil
}

// reopen opens the one persisted version as a tier-backed cube, as
// server.Persister.openVersion does, under the given pool budget.
func (fx *fixture) reopen(budget int) (*cube.Cube, error) {
	man, _, err := segment.LoadManifest(fx.dataDir)
	if err != nil {
		return nil, err
	}
	v, ok := man.Latest(cubeName)
	if !ok {
		return nil, fmt.Errorf("benchmark: %s was not written to %s", cubeName, fx.dataDir)
	}
	sf, err := segment.Open(filepath.Join(fx.dataDir, v.File), segment.OpenOptions{})
	if err != nil {
		return nil, err
	}
	fx.seg = sf
	cb, err := workload.LoadSchema(bytes.NewReader(sf.Meta()))
	if err != nil {
		return nil, err
	}
	st, ok := cb.Store().(*chunk.Store)
	if !ok {
		return nil, fmt.Errorf("benchmark: segment decoded to %T, want a chunk store", cb.Store())
	}
	return cb, st.AttachTier(sf, budget)
}

// close stops the listener and the server, waits for both, and removes
// the data directory. It is safe on a partly built fixture.
func (fx *fixture) close() error {
	var errs []error
	if fx.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, fx.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-fx.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if fx.svc != nil {
		fx.svc.Close()
	}
	if fx.catalog != nil {
		if p := fx.catalog.Persister(); p != nil {
			errs = append(errs, p.Flush())
		}
	}
	if fx.seg != nil {
		errs = append(errs, fx.seg.Close())
	}
	if fx.dataDir != "" {
		errs = append(errs, os.RemoveAll(fx.dataDir))
	}
	return errors.Join(errs...)
}

// store returns the served cube's chunk store.
func (fx *fixture) store() (*chunk.Store, error) {
	snap, err := fx.catalog.Acquire(cubeName)
	if err != nil {
		return nil, err
	}
	defer snap.Release()
	st, ok := snap.Cube.Store().(*chunk.Store)
	if !ok {
		return nil, fmt.Errorf("benchmark: served cube has a %T, want a chunk store", snap.Cube.Store())
	}
	return st, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
