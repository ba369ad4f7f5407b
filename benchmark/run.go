package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"whatifolap/internal/chunk"
	"whatifolap/internal/segment"
)

// runConfig is one run: one workload, one seed, one mode.
type runConfig struct {
	workload *workloadSpec
	scale    scale
	seed     int64
	// window is how long the run measures. An end-to-end run spends it
	// all in the closed loop; a traced run spends half there, for the
	// counters and the client-side numbers only some workloads have,
	// and half in the traced pass.
	window time.Duration
	traced bool
	// tmpRoot is where data directories are made; the run removes what
	// it makes there on every exit path.
	tmpRoot string
	// log receives the human-readable report.
	log io.Writer
}

// report is what a run found.
type report struct {
	resultLine
	table *layerTable
	spans []span
}

// run sets the fixture up, drives the workload, traces it if asked,
// verifies what was served and tears everything down.
func run(cfg runConfig) (rep *report, err error) {
	w, sc := cfg.workload, cfg.scale

	// Set-up, several times over: setup_s is the median, and the last
	// fixture built is the one the run uses.
	var fx *fixture
	var setupS []float64
	for i := 0; i < sc.setups; i++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if fx, err = setUp(sc, w.shape, w.tier, cfg.tmpRoot); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() {
		if cerr := fx.close(); err == nil {
			err = cerr
		}
	}()

	// Never more clients than CPUs: the load generator shares the host
	// with the server it measures.
	n := min(w.clients, runtime.NumCPU())
	clients := make([]*client, n)
	for i := range clients {
		clients[i] = newClient(fx, newStream(w, fx.info, sc, cfg.seed, i, n+1), cfg.seed)
		defer clients[i].close()
	}
	loop := cfg.window
	if cfg.traced {
		loop /= 2
	}
	win, err := closedLoop(clients, sc.warmup, loop)
	if err != nil {
		return nil, err
	}
	// Live heap is measured with the server still open — served cube,
	// result cache, retained traces — but every session closed and every
	// write-back done: a scenario left open pins the cube version it was
	// created on, and whether that is the current one depends on where
	// the window happened to end.
	for _, c := range clients {
		if err := c.endSession(); err != nil {
			return nil, err
		}
	}
	if p := fx.catalog.Persister(); p != nil {
		if err := p.Flush(); err != nil {
			return nil, err
		}
	}
	heap := liveHeap()
	rep = &report{}
	rep.Attempted, rep.Failed = win.attempted, win.failed
	failures := win.failures

	values := map[string]float64{}
	decls := endToEnd
	if cfg.traced {
		decls = perLayer
		if err := counters(fx, win, values); err != nil {
			return nil, err
		}
		// The traced pass has a stream of its own, so it replays queries
		// the result cache has not seen.
		tracer := newClient(fx, newStream(w, fx.info, sc, cfg.seed, n, n+1), cfg.seed)
		defer tracer.close()
		tp := newTracePass(fx, tracer)
		tp.run(time.Now().Add(cfg.window-loop), sc.tracedOps)
		if err := tp.traceSegment(cfg.tmpRoot); err != nil {
			return nil, err
		}
		for name, vs := range tp.values {
			values[name] = median(vs)
		}
		values["scenario.query_ms_per_layer"] = slope(tp.depth)
		table := tp.table()
		values["server.unattributed_ms"] = table.unattributed
		rep.table, rep.spans = &table, tp.spans
		rep.Attempted += tp.ops
		rep.Failed += len(tp.failed)
		failures = append(failures, tp.failed...)
	} else {
		values["setup_s"] = median(setupS)
		values["qps"] = win.overSlices(func(k int) float64 { return win.rateIn[k] })
		values["lat_p50_ms"] = win.overSlices(func(k int) float64 { return quantile(win.missIn[k], 0.5) })
		// Allocation does not depend on how fast the host runs, so it is
		// taken over the whole window, where one commit more or less
		// weighs least.
		values["alloc_kb_per_op"] = float64(win.allocBytes) / 1024 / float64(max(1, win.completed))
		values["live_heap_mb"] = float64(heap) / 1e6
	}

	// Verification, after the window and outside every timing.
	var checked int
	var bad []string
	if w.sessions {
		verifier := newClient(fx, newStream(w, fx.info, sc, cfg.seed, n, n+1), cfg.seed)
		defer verifier.close()
		checked, bad = verifyScenario(fx, verifier, verifiedQueries)
	} else {
		sample := sampleServed(clients, verifiedQueries)
		checked = len(sample)
		if bad, err = verifyServed(fx.cfg, sample, runtime.NumCPU()); err != nil {
			return nil, err
		}
	}
	rep.Attempted += checked
	rep.Failed += len(bad)
	failures = append(failures, bad...)
	rep.Correct = rep.Failed == 0 && checked > 0
	rep.Metrics = fill(decls, values)

	fmt.Fprintf(cfg.log, "%s seed %d: %d clients, %.1f s closed loop, %d ops attempted, %d completed in the window, %d failed; %d served queries verified, %d wrong\n",
		w.name, cfg.seed, n, loop.Seconds(), win.attempted, win.completed, win.failed, checked, len(bad))
	fmt.Fprintf(cfg.log, "  samples: %d evaluated, %d cache hits, %d edit batches, %d commits\n",
		len(win.lat[latMiss]), len(win.lat[latHit]), len(win.lat[latWrite]), len(win.lat[latCommit]))
	for _, class := range sortedKeys(win.missBy) {
		ms := win.missBy[class]
		fmt.Fprintf(cfg.log, "    %-14s %6d evaluated, p50 %9.3f ms, p90 %9.3f ms\n", class, len(ms), quantile(ms, 0.5), quantile(ms, 0.9))
	}
	for _, f := range failures {
		fmt.Fprintln(cfg.log, "  FAILED:", f)
	}
	for _, d := range decls {
		fmt.Fprintf(cfg.log, "  %-30s %16.4f %s\n", d.name, values[d.name], d.unit)
	}
	if rep.table != nil {
		rep.table.print(cfg.log, w.name)
	}
	return rep, nil
}

// counters fills in what a traced run reads rather than times: the
// client-side latencies of the closed-loop half, the server's own
// counters, the chunk store's state and the set-up's parts.
func counters(fx *fixture, win *window, values map[string]float64) error {
	values["lat_p90_ms"] = quantile(win.lat[latMiss], 0.9)
	values["hit_p50_ms"] = quantile(win.lat[latHit], 0.5)
	values["hit_p90_ms"] = quantile(win.lat[latHit], 0.9)
	values["write_p50_ms"] = quantile(win.lat[latWrite], 0.5)
	values["write_p90_ms"] = quantile(win.lat[latWrite], 0.9)
	values["commit_p50_ms"] = quantile(win.lat[latCommit], 0.5)

	m := fx.svc.Metrics().Snapshot()
	values["server.cache_hit_ratio"] = m.CacheHitRatio
	values["server.overloaded"] = float64(m.Overloaded)
	values["chunk.pool_faults"] = float64(m.Pool.Faults)
	values["chunk.pool_evictions"] = float64(m.Pool.Evictions)
	values["chunk.resident_bytes"] = float64(m.Pool.ResidentBytes)

	st, err := fx.store()
	if err != nil {
		return err
	}
	values["chunk.pool_hit_ratio"] = 1
	if reads := st.Reads(); st.Pooled() && reads > 0 {
		values["chunk.pool_hit_ratio"] = 1 - float64(m.Pool.Faults)/float64(reads)
	}
	values["chunk.store_bytes"] = float64(st.MemBytes())
	// The census comes last: peeking at a spilled chunk faults it in.
	for _, id := range st.ChunkIDs() {
		switch st.PeekChunk(id).Rep() {
		case chunk.RunEncoded:
			values["chunk.run_chunks"]++
		case chunk.Dense:
			values["chunk.dense_chunks"]++
		case chunk.Sparse:
			values["chunk.sparse_chunks"]++
		}
	}
	values["chunk.encode_runs_ms"] = fx.times.encodeRunsMs
	values["workload.gen_ms"] = fx.times.genMs
	values["workload.cells"] = float64(fx.info.cells)

	if fx.dataDir != "" {
		v, err := diskBytesPerCell(fx.dataDir)
		if err != nil {
			return err
		}
		values["disk_bytes_per_cell"] = v
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// diskBytesPerCell is every byte under the data directory over the
// cells of every cube version its manifest lists.
func diskBytesPerCell(dir string) (float64, error) {
	var bytes int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			bytes += fi.Size()
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	man, _, err := segment.LoadManifest(dir)
	if err != nil {
		return 0, err
	}
	cells := 0
	for _, name := range man.Names() {
		for _, v := range man.Versions(name) {
			cells += v.Cells
		}
	}
	if cells == 0 {
		return 0, fmt.Errorf("benchmark: manifest in %s lists no cells", dir)
	}
	return float64(bytes) / float64(cells), nil
}

// tempRoot makes the directory a run keeps its data directories in.
// It lies under the working directory, beside the build output, because
// the benchmark writes nowhere outside its checkout.
func tempRoot() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}
