// Package server is the concurrent what-if query service: a cube
// catalog (named, versioned, copy-on-write cubes), a bounded-pool
// executor with admission control, a byte-budgeted LRU result cache
// keyed on (cube, version, normalized MDX), and an HTTP surface with
// expvar-style metrics. cmd/whatifd wraps it in a daemon.
//
// The layering mirrors the deployment context the paper targets —
// Essbase answering interactive what-if MDX for many concurrent
// planning analysts — on top of this repo's single-cube engine:
//
//	HTTP ── admission queue ── worker pool ── mdx.Evaluator ── core.Engine
//	          │                      │
//	          └── result cache       └── catalog snapshot (refcounted)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"whatifolap/internal/chunk"
	"whatifolap/internal/core"
	"whatifolap/internal/cube"
	"whatifolap/internal/mdx"
	"whatifolap/internal/obs"
	"whatifolap/internal/perspective"
	"whatifolap/internal/result"
	"whatifolap/internal/scenario"
	"whatifolap/internal/trace"
)

// StatusClientClosedRequest reports client-side cancellation (the nginx
// convention; Go's stdlib has no constant for it).
const StatusClientClosedRequest = 499

// Config parameterizes the service. Zero values choose sane defaults.
type Config struct {
	// Workers bounds query parallelism (default: GOMAXPROCS). Each
	// query scans on the worker that runs it.
	Workers int
	// QueueCap bounds the admission queue; a full queue sheds load with
	// HTTP 429 (default: 4 × workers).
	QueueCap int
	// CacheBytes is the result cache's byte budget — the most it may
	// ever hold, not what it fills to: the cache keeps its working set,
	// growing from a small start as it observes reuse (see resultCache).
	// 0 or negative disables caching. DefaultCacheBytes is used when
	// left zero by cmd/whatifd, but the library treats 0 as "off" so
	// tests can exercise the uncached path.
	CacheBytes int
	// DefaultTimeout bounds each query when the request does not carry
	// its own timeout; 0 means no deadline.
	DefaultTimeout time.Duration
	// SlowQueryMs is the slow-query threshold in milliseconds: a query
	// at or above it counts in slow_queries and keeps its span trace in
	// the trace ring, which /debug/slowlog lists. 0 uses
	// DefaultSlowQueryMs; negative disables the log.
	SlowQueryMs float64
	// ObsInterval is the metrics-history collector cadence: every tick
	// one obs.Sample of counter deltas and gauge levels is appended to
	// the ring served at /metrics/history. 0 uses DefaultObsInterval;
	// negative disables the collector (tests drive sampling directly).
	ObsInterval time.Duration
	// RetainTraceBytes is the tail-sampled trace ring's byte budget:
	// slow, errored and one in retainOneIn healthy queries keep their
	// full span trees, addressable at /debug/trace/{id}. 0 uses
	// DefaultRetainTraceBytes; negative disables retention, and with it
	// the slow-query log's entries.
	RetainTraceBytes int
	// Events, when non-nil, replaces the server's own event log — the
	// daemon passes one with an os.Stderr sink so lifecycle events reach
	// the operator as JSON lines as well as /debug/events.
	Events *obs.EventLog
}

// DefaultCacheBytes is the daemon's default result-cache budget.
const DefaultCacheBytes = 32 << 20

// DefaultSlowQueryMs is the slow-query log threshold when Config
// leaves SlowQueryMs zero.
const DefaultSlowQueryMs = 250

// DefaultObsInterval is the metrics-history sampling cadence when
// Config leaves ObsInterval zero.
const DefaultObsInterval = time.Second

// DefaultRetainTraceBytes is the tail-sampled trace ring's byte budget
// when Config leaves RetainTraceBytes zero.
const DefaultRetainTraceBytes = 4 << 20

// retainOneIn is the trace ring's healthy-query sampling rate: one
// query in this many keeps its trace regardless of latency, so the
// ring always holds representative healthy traces.
const retainOneIn = 64

// maxBodyBytes bounds every request body.
const maxBodyBytes = 1 << 20

// Server wires catalog, executor, cache and metrics together behind an
// http.Handler. Create with New, serve Handler(), stop with Close.
type Server struct {
	catalog   *Catalog
	exec      *Executor
	cache     *resultCache
	metrics   *Metrics
	scenarios *scenario.Manager
	cfg       Config

	// Observability: history ring + its collector, tail-sampled trace
	// retention (which also holds the slow-query log), structured event
	// log, and the sampler holding the previous tick's snapshot. traces
	// and events are nil-safe, so disabled configurations cost one
	// pointer check on the query path.
	history   *obs.History
	collector *obs.Collector
	traces    *obs.TraceRing
	events    *obs.EventLog
	sampler   *obsSampler

	// tracePool recycles span buffers across queries: every engine-backed
	// query runs traced (the recorder is allocation-free once its buffer
	// exists), so pooling makes steady-state tracing alloc-free too.
	tracePool sync.Pool
}

// New creates a server over the catalog.
func New(catalog *Catalog, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4 * cfg.Workers
	}
	if cfg.SlowQueryMs == 0 {
		cfg.SlowQueryMs = DefaultSlowQueryMs
	}
	s := &Server{
		catalog:   catalog,
		exec:      NewExecutor(cfg.Workers, cfg.QueueCap),
		cache:     newResultCache(cfg.CacheBytes),
		metrics:   NewMetrics(),
		scenarios: scenario.NewManager(),
		cfg:       cfg,
	}
	s.tracePool.New = func() interface{} { return trace.New(0) }
	s.metrics.gauges = s.gauges
	s.events = cfg.Events
	if s.events == nil {
		s.events = obs.NewEventLog(0, nil)
	}
	if p := catalog.Persister(); p != nil {
		p.SetEventLog(s.events)
	}
	if cfg.RetainTraceBytes >= 0 {
		budget := cfg.RetainTraceBytes
		if budget == 0 {
			budget = DefaultRetainTraceBytes
		}
		s.traces = obs.NewTraceRing(budget, retainOneIn)
	}
	s.history = obs.NewHistory(0)
	s.sampler = newObsSampler(s)
	if cfg.ObsInterval >= 0 {
		interval := cfg.ObsInterval
		if interval == 0 {
			interval = DefaultObsInterval
		}
		s.collector = obs.StartCollector(interval, s.sampler.sample)
	}
	return s
}

// Catalog returns the server's cube catalog.
func (s *Server) Catalog() *Catalog { return s.catalog }

// Metrics returns the server's metrics set.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close stops the history collector and the worker pool (draining
// admitted queries), then waits for any pending segment write-backs so
// a clean shutdown never loses a published version.
func (s *Server) Close() {
	s.collector.Stop()
	s.exec.Close()
	if p := s.catalog.Persister(); p != nil {
		_ = p.Flush()
	}
}

// Handler returns the HTTP surface:
//
//	POST /query            {"cube": "...", "query": "...", "timeout_ms": 0}
//	GET  /cubes            catalog listing
//	GET  /metrics          counters + histogram snapshot (JSON; ?format=prom
//	                       for Prometheus text exposition)
//	GET  /metrics/history  metrics time-series ring (per-interval deltas)
//	GET  /debug/slowlog    the trace ring's slow queries, newest first,
//	                       trees rendered on read; total counts them all
//	GET  /debug/trace      retained trace summaries (tail sampling)
//	GET  /debug/trace/{id} one retained trace's full span tree
//	GET  /debug/events     structured component lifecycle events
//	GET  /healthz          liveness
//
// plus the scenario workspace surface:
//
//	POST   /scenarios                  create over a catalog cube
//	GET    /scenarios                  list workspaces
//	POST   /scenarios/{id}/edit        apply an edit batch
//	POST   /scenarios/{id}/fork        fork (shares the layer chain)
//	POST   /scenarios/{id}/query       query the layered view
//	GET    /scenarios/{id}/diff        cell diff (?against={id2})
//	POST   /scenarios/{id}/commit      publish as a new cube version
//	DELETE /scenarios/{id}             discard
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /cubes", s.handleCubes)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics/history", s.handleMetricsHistory)
	mux.HandleFunc("GET /debug/slowlog", s.handleSlowlog)
	mux.HandleFunc("GET /debug/trace", s.handleTraceList)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /debug/events", s.handleEvents)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("POST /scenarios", s.handleScenarioCreate)
	mux.HandleFunc("GET /scenarios", s.handleScenarioList)
	mux.HandleFunc("POST /scenarios/{id}/edit", s.handleScenarioEdit)
	mux.HandleFunc("POST /scenarios/{id}/fork", s.handleScenarioFork)
	mux.HandleFunc("POST /scenarios/{id}/query", s.handleScenarioQuery)
	mux.HandleFunc("GET /scenarios/{id}/diff", s.handleScenarioDiff)
	mux.HandleFunc("POST /scenarios/{id}/commit", s.handleScenarioCommit)
	mux.HandleFunc("DELETE /scenarios/{id}", s.handleScenarioDelete)
	return mux
}

// queryRequest is the POST /query body.
type queryRequest struct {
	// Cube names the catalog entry; may be omitted when the catalog
	// holds exactly one cube.
	Cube string `json:"cube"`
	// Query is extended-MDX source.
	Query string `json:"query"`
	// TimeoutMs overrides the server's default query deadline.
	TimeoutMs int `json:"timeout_ms"`
}

// queryStats is the engine-execution summary attached to responses.
type queryStats struct {
	MembersInScope int `json:"members_in_scope"`
	ChunksRead     int `json:"chunks_read"`
	CellsRelocated int `json:"cells_relocated"`
	MergeEdges     int `json:"merge_edges"`
	MergeGroups    int `json:"merge_groups"`
	// Wall-clock stage times (scan_ms, ...) are deliberately NOT in the
	// body: responses must be byte-identical for identical queries so the
	// result cache can serve stored bodies verbatim. Per-stage means are
	// aggregated at /metrics (StageSnapshot).
}

// responseHead opens every query response: the cube version the answer
// was computed at and, on the scenario path, the scenario coordinates
// (the revision is a pointer so that revision 0 is still spelled out).
type responseHead struct {
	Cube             string `json:"cube"`
	Version          int64  `json:"version"`
	Scenario         string `json:"scenario,omitempty"`
	ScenarioRevision *int64 `json:"scenario_revision,omitempty"`
}

// queryResponse is the success body of POST /query and POST
// /scenarios/{id}/query. Values use null for the meaningless cell ⊥
// (NaN is not valid JSON). It declares the wire format and is what a
// client decodes; the server writes the same bytes without building it
// (encodeQueryResponse).
type queryResponse struct {
	responseHead
	Columns   []string     `json:"columns"`
	Rows      []string     `json:"rows"`
	PropNames []string     `json:"prop_names,omitempty"`
	RowProps  [][]string   `json:"row_props,omitempty"`
	Values    [][]*float64 `json:"values"`
	Stats     queryStats   `json:"stats"`
}

// explainResponse is the body for EXPLAIN [ANALYZE] queries on either
// endpoint. Stats is set only under ANALYZE: plain EXPLAIN executes
// nothing, so it has no statistics to report.
type explainResponse struct {
	responseHead
	Analyze bool        `json:"analyze"`
	Explain string      `json:"explain"`
	Stats   *queryStats `json:"stats,omitempty"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// queryTarget is what a query request runs against, resolved by the
// endpoint: a leased catalog snapshot (/query) or a scenario's layered
// view (/scenarios/{id}/query). Everything after that is serveQuery.
type queryTarget struct {
	// key carries the cube name and version and, on the scenario path,
	// the scenario id and revision; serveQuery adds the query.
	key  cacheKey
	cube *cube.Cube
	// snap is the catalog lease to return when the request ends (nil on
	// the scenario path: a view is an immutable value, not a lease).
	snap *Snapshot
	// layers and overridden describe the scenario's chain on the root
	// span of its queries.
	layers, overridden int
}

// head opens the response to the request the key identifies.
func (k cacheKey) head() responseHead {
	h := responseHead{Cube: k.Cube, Version: k.Version, Scenario: k.Scenario}
	if k.Scenario != "" {
		rev := k.ScenarioRev
		h.ScenarioRevision = &rev
	}
	return h
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, func(name string) (queryTarget, int, error) {
		snap, status, err := s.acquireCube(name)
		if err != nil {
			return queryTarget{}, status, err
		}
		return queryTarget{
			key: cacheKey{Cube: snap.Name, Version: snap.Version}, cube: snap.Cube, snap: snap,
		}, 0, nil
	})
}

// acquireCube leases the current version of the cube a request names —
// no name means the catalog's only cube — or says with which status to
// refuse the request.
func (s *Server) acquireCube(name string) (*Snapshot, int, error) {
	if name == "" {
		names := s.catalog.Names()
		if len(names) != 1 {
			return nil, http.StatusBadRequest, fmt.Errorf("no cube named and catalog holds %d cubes", len(names))
		}
		name = names[0]
	}
	snap, err := s.catalog.Acquire(name)
	if err != nil {
		return nil, http.StatusNotFound, err
	}
	return snap, 0, nil
}

// serveQuery is the one request path of both query endpoints: decode →
// resolve target → normalize → result cache → parse → deadline → pooled
// trace → admission queue → metrics, slow-query log, trace retention →
// encode → cache put. EXPLAIN and EXPLAIN ANALYZE are branches of it.
// resolve maps the request's cube name to the target, or to the status
// and error to refuse with.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, resolve func(cubeName string) (queryTarget, int, error)) {
	var req queryRequest
	if !s.decodeBody(w, r, &req, false) {
		s.metrics.QueryErrors.Add(1)
		return
	}
	t, status, err := resolve(req.Cube)
	if err != nil {
		s.metrics.QueryErrors.Add(1)
		writeJSON(w, status, errorResponse{err.Error()})
		return
	}
	if t.snap != nil {
		defer t.snap.Release()
	}
	norm, err := mdx.Normalize(req.Query)
	if err != nil {
		s.metrics.QueryErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	started := time.Now()
	// key identifies the request to the cache, the slow-query log, trace
	// retention and the response head. t itself stays unmodified so the
	// execution closure copies it and a cache hit allocates nothing here.
	key := t.key
	key.Query = norm
	// EXPLAIN output is never cached — ANALYZE timings differ per run,
	// and plain EXPLAIN is pure planning, cheaper than a cache slot — so
	// it neither looks up nor counts as a miss. The prefix is read off
	// the normalized text because a hit must return before parsing.
	if !strings.HasPrefix(norm, "EXPLAIN ") {
		if body, ok := s.cache.Get(key); ok {
			s.metrics.CacheHits.Add(1)
			s.observeServed(key, started)
			writeCached(w, key.Version, body, true)
			return
		}
		s.metrics.CacheMisses.Add(1)
	}

	q, err := mdx.Parse(req.Query)
	if err != nil {
		s.metrics.QueryErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	s.metrics.bySem[classify(q)].Add(1)

	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	if q.Explain && !q.Analyze {
		// Pure planning reads no chunk, so it runs inline rather than
		// taking a worker from executing queries.
		text, err := mdx.NewEvaluator(t.cube).Explain(q)
		if err != nil {
			s.metrics.QueryErrors.Add(1)
			writeJSON(w, http.StatusUnprocessableEntity, errorResponse{err.Error()})
			return
		}
		s.observeServed(key, started)
		writeJSON(w, http.StatusOK, explainResponse{responseHead: key.head(), Explain: text})
		return
	}

	// Every executed query runs under a pooled span trace: the recorder
	// is allocation-free, and the spans feed the trace-derived
	// histograms, the slow-query log and trace retention.
	tr := s.tracePool.Get().(*trace.Trace)
	defer func() {
		tr.Reset()
		s.tracePool.Put(tr)
	}()

	var grid *result.Grid
	var stats core.Stats
	var ps *core.ProjectStats
	err = s.exec.Do(ctx, func(ctx context.Context) error {
		// The worker's context goes straight into the engine through an
		// explicit RunContext — no mutation of shared evaluator or
		// engine state between concurrent queries.
		var runErr error
		root := tr.Start(trace.SpanRef{}, "eval")
		defer root.End()
		if t.key.Scenario != "" {
			root.Int("scenario_layers", int64(t.layers))
			root.Int("cells_overridden", int64(t.overridden))
		}
		ctx = trace.WithSpan(trace.NewContext(ctx, tr), root)
		rc := mdx.RunContext{Ctx: ctx}
		grid, stats, ps, runErr = mdx.NewEvaluator(t.cube).RunQueryProjectedWith(rc, q)
		return runErr
	})
	// The retained trace ID travels in a header, like cache state: the
	// cached body must stay byte-identical across hits and misses.
	if id := s.recordTrace(tr, key, time.Since(started), err); id != "" {
		w.Header().Set("X-Trace-Id", id)
	}
	if err != nil {
		s.writeQueryError(w, key, err)
		return
	}
	s.metrics.observeQuery(tr.Spans(), stats, grid)
	qs := queryStats{
		MembersInScope: stats.MembersInScope,
		ChunksRead:     stats.ChunksRead,
		CellsRelocated: stats.CellsRelocated,
		MergeEdges:     stats.MergeEdges,
		MergeGroups:    stats.MergeGroups,
	}
	if q.Explain {
		// EXPLAIN ANALYZE executed like any query; only the body differs.
		s.observeServed(key, started)
		writeJSON(w, http.StatusOK, explainResponse{
			responseHead: key.head(), Analyze: true, Explain: mdx.RenderAnalyze(tr, stats, ps), Stats: &qs,
		})
		return
	}
	body, err := encodeQueryResponse(key.head(), grid, qs)
	if err != nil {
		s.metrics.QueryErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	s.cache.Put(key, body)
	s.observeServed(key, started)
	writeCached(w, key.Version, body, false)
}

// observeServed counts one served request and its latency — every
// request that gets a 200 passes here exactly once, so queries_served
// and the latency histogram's count move together.
func (s *Server) observeServed(key cacheKey, started time.Time) {
	elapsed := time.Since(started)
	s.metrics.QueriesServed.Add(1)
	s.metrics.ObserveLatency(elapsed)
	if key.Scenario != "" {
		s.metrics.ObserveScenario(key.Scenario, elapsed)
	}
}

// writeQueryError maps the errors of the query key names to status codes
// and counters: what the client can fix (a bad query) is 422, what it
// cannot (a panic, a failed storage read) 500 and 503.
func (s *Server) writeQueryError(w http.ResponseWriter, key cacheKey, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		s.metrics.Overloaded.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{err.Error()})
	case errors.Is(err, ErrShuttingDown):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.TimedOut.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{"query deadline exceeded"})
	case errors.Is(err, context.Canceled):
		s.metrics.Canceled.Add(1)
		writeJSON(w, StatusClientClosedRequest, errorResponse{"query canceled"})
	case errors.Is(err, errQueryPanicked):
		s.metrics.QueryErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
	case errors.As(err, new(*chunk.ReadError)):
		// The storage tier failed a chunk read (the error names the chunk
		// and the segment; the message adds the cube and its version): the
		// query was fine, the server could not serve it.
		s.metrics.QueryErrors.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{fmt.Sprintf("cube %s version %d: %v", key.Cube, key.Version, err)})
	default:
		s.metrics.QueryErrors.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{err.Error()})
	}
}

// The query classes by_semantics counts: four shapes, then one per
// perspective semantics (classSemantics + the semantics).
const (
	classPlain = iota
	classChanges
	classTransfer
	classMixed
	classSemantics
	nQueryClasses = classSemantics + int(perspective.ExtendedBackward) + 1
)

// queryClasses names the classes, the by_semantics keys: a semantics
// is its MDX spelling in lower case, words joined by '-'.
var queryClasses = func() (names [nQueryClasses]string) {
	copy(names[:], []string{"plain", "changes", "transfer", "mixed"})
	for c := classSemantics; c < nQueryClasses; c++ {
		names[c] = strings.ReplaceAll(strings.ToLower(perspective.Semantics(c-classSemantics).String()), " ", "-")
	}
	return names
}()

// classify buckets a parsed query for the per-semantics metric.
func classify(q *mdx.Query) int {
	nP, nT := len(q.Perspectives), len(q.Transfers)
	switch {
	case q.Changes == nil && nP == 0 && nT == 0:
		return classPlain
	case q.Changes != nil && nP == 0 && nT == 0:
		return classChanges
	case q.Changes == nil && nP == 0 && nT > 0:
		return classTransfer
	case q.Changes == nil && nP == 1 && nT == 0:
		return classSemantics + int(q.Perspectives[0].Sem)
	}
	return classMixed
}

func (s *Server) handleCubes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Cubes []CubeInfo `json:"cubes"`
	}{s.catalog.List()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.metrics.WriteProm(w)
		return
	}
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// decodeBody decodes the request's JSON body, capped at maxBodyBytes,
// into v. A body that does not decode — an empty one too, unless
// emptyOK — is answered 400 and decodeBody reports false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}, emptyOK bool) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil || emptyOK && errors.Is(err, io.EOF) {
		return true
	}
	writeJSON(w, http.StatusBadRequest, errorResponse{"bad request body: " + err.Error()})
	return false
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeCached writes a (possibly cached) success body. Cache state
// travels in a header so the body bytes stay identical across hits and
// misses — the cache stores the serialized body verbatim.
func writeCached(w http.ResponseWriter, version int64, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cube-Version", fmt.Sprint(version))
	if hit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	if len(body) > 0 && body[len(body)-1] != '\n' {
		_, _ = w.Write([]byte("\n"))
	}
}
