// Command whatifd is the what-if OLAP query daemon: it loads one or
// more cubes into a catalog and serves concurrent extended-MDX queries
// over HTTP with admission control, per-query deadlines, a result
// cache, and metrics.
//
// Endpoints:
//
//	POST /query          {"cube": "wf", "query": "SELECT ...", "timeout_ms": 0}
//	GET  /cubes          catalog listing (name, version, dims, cells, in-flight)
//	GET  /metrics        counters, cache hit ratio, queue depth, p50/p95/p99
//	                     (?format=prom for Prometheus text exposition)
//	GET  /metrics/history  in-process metrics time-series (interval deltas)
//	GET  /debug/slowlog  slow queries still in the retained-trace ring, newest
//	                     first, with their span trees (-retain-bytes bounds it)
//	GET  /debug/trace    retained trace summaries; /debug/trace/{id} one tree
//	GET  /debug/events   structured component lifecycle events
//	GET  /healthz        liveness
//
// Scenario workspaces (layered what-if sessions over a catalog cube):
//
//	POST   /scenarios                create: {"name": "...", "cube": "..."}
//	GET    /scenarios                list workspaces
//	POST   /scenarios/{id}/edit      apply an atomic edit batch: {"edits": [...]}
//	POST   /scenarios/{id}/fork      fork (shares the parent's layers)
//	POST   /scenarios/{id}/query     query the layered view (same body as /query)
//	GET    /scenarios/{id}/diff      cell diff against another: ?against={id2}
//	POST   /scenarios/{id}/commit    publish as the cube's next catalog version
//	DELETE /scenarios/{id}           discard the workspace
//
// With -debug-addr a second listener serves net/http/pprof at
// /debug/pprof/ — kept off the query port so profiling endpoints are
// never exposed where queries are.
//
// Every published cube version (initial registration, scenario commit)
// is settled first: each chunk is run-length encoded where its value
// runs pay, otherwise stored sparse or dense by occupancy, and keeps
// that form for as long as the version is served.
//
// With -data-dir the daemon is persistent: every published cube version
// is written back to the directory as a checksummed segment file behind
// a crash-safe manifest, and a restart restores the catalog — version
// numbers included — without re-ingesting dumps. -mmap serves segment
// reads through a read-only memory map instead of pread.
//
// Cube sources mirror cmd/whatif: -paper, -workforce, and repeatable
// -load name=path flags accepting both dump formats of cmd/cubegen.
//
// Examples:
//
//	whatifd -workforce -addr :8080
//	curl -s localhost:8080/query -d '{"query": "SELECT {[Account].Levels(0).Members} ON COLUMNS FROM [Db]"}'
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: listeners close,
// in-flight queries drain, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // pprof handlers on http.DefaultServeMux, served via -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	olap "whatifolap"
	"whatifolap/internal/obs"
	"whatifolap/internal/server"
)

// loadFlags collects repeatable -load name=path values.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var loads loadFlags
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		paper       = flag.Bool("paper", false, "serve the paper's Fig. 1/2 example warehouse as cube \"paper\"")
		wf          = flag.Bool("workforce", false, "serve the default generated workforce dataset as cube \"workforce\"")
		workers     = flag.Int("workers", 0, "query worker pool size (0 = GOMAXPROCS)")
		queueCap    = flag.Int("queue", 0, "admission queue capacity (0 = 4×workers); overflow returns 429")
		cacheBytes  = flag.Int("cache-bytes", server.DefaultCacheBytes, "result cache byte cap: the cache grows toward it only as it observes reuse (0 disables)")
		timeout     = flag.Duration("timeout", 30*time.Second, "default per-query deadline (0 = none)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
		slowMs      = flag.Float64("slowlog", server.DefaultSlowQueryMs, "slow-query log threshold in ms (negative disables)")
		dataDir     = flag.String("data-dir", "", "persistent data directory: restore cubes from it at startup and write published versions back as segment files (empty = in-memory only)")
		useMmap     = flag.Bool("mmap", false, "with -data-dir, serve segment reads through a read-only memory map instead of pread")
		obsEvery    = flag.Duration("obs-interval", 0, "metrics-history sampling cadence (0 = default 1s, negative disables)")
		retainBytes = flag.Int("retain-bytes", 0, "retained-trace ring byte budget, which also holds the slow-query log (0 = default 4 MiB, negative disables both)")
	)
	flag.Var(&loads, "load", "serve a cube dump as name=path (repeatable; text or binary format)")
	flag.Parse()

	// Component lifecycle goes through one structured event log: every
	// event is a JSON line on stderr and retained for /debug/events.
	events := obs.NewEventLog(0, os.Stderr)

	catalog := server.NewCatalog()
	restored := map[string]bool{}
	if *dataDir != "" {
		p, err := server.OpenPersister(*dataDir, *useMmap)
		if err != nil {
			fatal(err)
		}
		if p.Recovered() {
			events.Log("manifest_recovered", map[string]string{"dir": *dataDir})
		}
		names, err := p.Restore(catalog)
		if err != nil {
			fatal(err)
		}
		for _, n := range names {
			restored[n] = true
		}
		if len(names) > 0 {
			events.Log("restore", map[string]string{
				"dir":   *dataDir,
				"cubes": strings.Join(names, ","),
			})
		}
		// Attach after Restore: restored versions are already durable and
		// must not be rewritten; everything registered from here on is.
		catalog.SetPersister(p)
	}
	if *paper && !restored["paper"] {
		if err := catalog.Register("paper", olap.PaperWarehouseChunked()); err != nil {
			fatal(err)
		}
	}
	if *wf && !restored["workforce"] {
		w, err := olap.NewWorkforce(olap.WorkforceDefault())
		if err != nil {
			fatal(err)
		}
		if err := catalog.Register("workforce", w.Cube); err != nil {
			fatal(err)
		}
	}
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			fatal(fmt.Errorf("bad -load %q, want name=path", spec))
		}
		if restored[name] {
			continue
		}
		if err := catalog.LoadFile(name, path); err != nil {
			fatal(err)
		}
	}
	names := catalog.Names()
	if len(names) == 0 {
		fatal(errors.New("no cubes: pass -paper, -workforce, -load name=path, or -data-dir with restorable cubes"))
	}
	svc := server.New(catalog, server.Config{
		Workers:          *workers,
		QueueCap:         *queueCap,
		CacheBytes:       *cacheBytes,
		DefaultTimeout:   *timeout,
		SlowQueryMs:      *slowMs,
		ObsInterval:      *obsEvery,
		RetainTraceBytes: *retainBytes,
		Events:           events,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}

	if *debugAddr != "" {
		// http.DefaultServeMux carries the pprof handlers registered by
		// the net/http/pprof import; it is deliberately NOT the query mux.
		dbg := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "whatifd: debug listener:", err)
			}
		}()
		events.Log("debug_listener", map[string]string{"addr": *debugAddr})
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	events.Log("serving", map[string]string{
		"addr":  *addr,
		"cubes": strings.Join(names, ","),
	})

	select {
	case <-ctx.Done():
		events.Log("shutdown", nil)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "whatifd: shutdown:", err)
		}
		svc.Close()
		if p := catalog.Persister(); p != nil {
			if err := p.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "whatifd:", err)
			}
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "whatifd:", err)
	os.Exit(1)
}
