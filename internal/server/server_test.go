package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/segment"
)

// paperQuery is the paper's Fig. 4-style running-example query.
const paperQuery = `
WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS,
       {[PTE].Children} ON ROWS
FROM Warehouse
WHERE ([Location].[NY], [Measures].[Salary])`

// newPaperServer builds a server over the paper warehouse.
func newPaperServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	cat := NewCatalog()
	if err := cat.Register("paper", paperdata.ChunkedWarehouse(nil)); err != nil {
		t.Fatal(err)
	}
	s := New(cat, cfg)
	t.Cleanup(s.Close)
	return s
}

// postQuery sends one POST /query through the handler.
func postQuery(t testing.TB, h http.Handler, req queryRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	return rec
}

func TestServerEndpoints(t *testing.T) {
	s := newPaperServer(t, Config{CacheBytes: 1 << 20})
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cubes", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/cubes = %d: %s", rec.Code, rec.Body)
	}
	var cubes struct {
		Cubes []CubeInfo `json:"cubes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &cubes); err != nil {
		t.Fatal(err)
	}
	if len(cubes.Cubes) != 1 || cubes.Cubes[0].Name != "paper" || cubes.Cubes[0].Version != 1 {
		t.Fatalf("/cubes = %+v", cubes)
	}
	if len(cubes.Cubes[0].Dimensions) == 0 || cubes.Cubes[0].Cells == 0 {
		t.Fatalf("cube info lacks shape: %+v", cubes.Cubes[0])
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cubes", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /cubes = %d, want 405", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
}

func TestServerQueryAndCacheHit(t *testing.T) {
	s := newPaperServer(t, Config{CacheBytes: 1 << 20})
	h := s.Handler()

	// Cube name omitted: a single-cube catalog serves its only cube.
	first := postQuery(t, h, queryRequest{Query: paperQuery})
	if first.Code != http.StatusOK {
		t.Fatalf("first query = %d: %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("first X-Cache = %q, want MISS", got)
	}
	var resp queryResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cube != "paper" || resp.Version != 1 {
		t.Fatalf("response identifies %s v%d", resp.Cube, resp.Version)
	}
	if len(resp.Columns) == 0 || len(resp.Rows) == 0 || len(resp.Values) != len(resp.Rows) {
		t.Fatalf("degenerate grid: %+v", resp)
	}

	// A formatting/keyword-case variant of the same query must hit
	// (member names keep their case — they are not keywords).
	variant := strings.Join(strings.Fields(paperQuery), " ")
	variant = strings.Replace(variant, "SELECT", "select", 1)
	second := postQuery(t, h, queryRequest{Cube: "paper", Query: variant})
	if second.Code != http.StatusOK {
		t.Fatalf("second query = %d: %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("second X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cache hit body differs from miss body")
	}

	m := s.Metrics().Snapshot()
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.QueriesServed != 2 {
		t.Fatalf("metrics = hits %d, misses %d, served %d", m.CacheHits, m.CacheMisses, m.QueriesServed)
	}
	if m.CacheHitRatio != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", m.CacheHitRatio)
	}
	if m.BySemantics["dynamic-forward"] != 1 {
		t.Fatalf("by_semantics = %v, want dynamic-forward: 1", m.BySemantics)
	}
	if m.Latency.Count != 2 {
		t.Fatalf("latency count = %d, want 2", m.Latency.Count)
	}
}

func TestServerUpdateBumpsVersionAndMissesCache(t *testing.T) {
	s := newPaperServer(t, Config{CacheBytes: 1 << 20})
	h := s.Handler()

	if rec := postQuery(t, h, queryRequest{Query: paperQuery}); rec.Code != http.StatusOK {
		t.Fatalf("warm-up query = %d: %s", rec.Code, rec.Body)
	}
	v, err := s.UpdateCube("paper", func(c *cube.Cube) (*cube.Cube, error) {
		c.SetLeaf(make([]int, c.NumDims()), 12345)
		return c, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("UpdateCube version = %d, want 2", v)
	}

	rec := postQuery(t, h, queryRequest{Query: paperQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("post-update query = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("post-update X-Cache = %q, want MISS (version bump)", got)
	}
	if got := rec.Header().Get("X-Cube-Version"); got != "2" {
		t.Fatalf("post-update X-Cube-Version = %q, want 2", got)
	}
}

func TestServerQueryErrors(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Register("a", paperdata.ChunkedWarehouse(nil)); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("b", paperdata.ChunkedWarehouse(nil)); err != nil {
		t.Fatal(err)
	}
	s := New(cat, Config{})
	t.Cleanup(s.Close)
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader("{not json")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body = %d, want 400", rec.Code)
	}

	// Two cubes, none named: ambiguous.
	if rec := postQuery(t, h, queryRequest{Query: paperQuery}); rec.Code != http.StatusBadRequest {
		t.Fatalf("ambiguous cube = %d, want 400", rec.Code)
	}
	if rec := postQuery(t, h, queryRequest{Cube: "nope", Query: paperQuery}); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown cube = %d, want 404", rec.Code)
	}
	if rec := postQuery(t, h, queryRequest{Cube: "a", Query: "SELECT FROM ("}); rec.Code != http.StatusBadRequest {
		t.Fatalf("parse error = %d, want 400", rec.Code)
	}
	// Parses but fails evaluation: unknown member.
	if rec := postQuery(t, h, queryRequest{Cube: "a",
		Query: "SELECT {[NoSuchMember].Children} ON COLUMNS FROM W"}); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("eval error = %d, want 422", rec.Code)
	}

	if got := s.Metrics().Snapshot().QueryErrors; got != 5 {
		t.Fatalf("query_errors = %d, want 5", got)
	}
}

func TestServerOverloadReturns429(t *testing.T) {
	s := newPaperServer(t, Config{Workers: 1, QueueCap: 1})
	h := s.Handler()

	release := make(chan struct{})
	wg := blockWorker(t, s.exec, release)
	queued := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		queued <- s.exec.Do(context.Background(), func(context.Context) error { return nil })
	}()
	waitFor(t, func() bool { return s.exec.QueueDepth() == 1 })

	rec := postQuery(t, h, queryRequest{Query: paperQuery})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server = %d, want 429: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(release)
	<-queued
	wg.Wait()

	if got := s.Metrics().Snapshot().Overloaded; got != 1 {
		t.Fatalf("overloaded = %d, want 1", got)
	}
}

func TestServerCancellationMidQueryReturns499(t *testing.T) {
	s := newPaperServer(t, Config{CacheBytes: 0})
	h := s.Handler()

	snap, err := s.catalog.Acquire("paper")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	st := snap.Cube.Store().(*chunk.Store)

	// The hook parks the engine inside its first chunk read, proving the
	// query is mid-execution when the client disconnects; the engine's
	// next context check aborts it.
	hookHit := make(chan struct{})
	releaseHook := make(chan struct{})
	var once sync.Once
	st.SetReadHook(func(int) {
		once.Do(func() {
			close(hookHit)
			<-releaseHook
		})
	})
	defer st.SetReadHook(nil)

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(queryRequest{Query: paperQuery})
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx))
	}()

	<-hookHit
	cancel()
	close(releaseHook)
	<-done

	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("canceled query = %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body)
	}
	if got := s.Metrics().Snapshot().Canceled; got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
}

func TestServerTimeoutReturns504(t *testing.T) {
	s := newPaperServer(t, Config{CacheBytes: 0})
	h := s.Handler()

	snap, err := s.catalog.Acquire("paper")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	st := snap.Cube.Store().(*chunk.Store)

	// Park the engine mid-read until the 1 ms request deadline has
	// certainly passed.
	releaseHook := make(chan struct{})
	var once sync.Once
	st.SetReadHook(func(int) {
		once.Do(func() { <-releaseHook })
	})
	defer st.SetReadHook(nil)

	go func() {
		time.Sleep(20 * time.Millisecond)
		close(releaseHook)
	}()
	rec := postQuery(t, h, queryRequest{Query: paperQuery, TimeoutMs: 1})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query = %d, want 504: %s", rec.Code, rec.Body)
	}
	if got := s.Metrics().Snapshot().TimedOut; got != 1 {
		t.Fatalf("timed_out counter = %d, want 1", got)
	}
}

// TestServerScanPanicIs500 injects a panic into the engine's chunk scan
// — a read hook that panics on the third chunk read of a query whose
// plan has merge edges, over a cube spilled behind a small buffer pool —
// and requires the serving layer to answer it like any failed query: a
// 500 naming the panic, one more query error, every pool pin released
// while the panic unwound, and a healthy server afterwards.
func TestServerScanPanicIs500(t *testing.T) {
	s, w := newWorkforceServer(t, Config{})
	h := s.Handler()
	st := w.Cube.Store().(*chunk.Store)
	if err := segment.PageOut(st, t.TempDir()+"/cube.seg", st.MemBytes()/8); err != nil {
		t.Fatal(err)
	}
	query := `
WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department DYNAMIC FORWARD VISUAL
SELECT {[Account].Levels(0).Members} ON COLUMNS, {[Department].Levels(0).Members} ON ROWS
FROM [App].[Db]
WHERE ([Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`

	reads, pinned := 0, 0 // the hook runs under the store's hook mutex
	st.SetReadHook(func(int) {
		if reads++; reads == 3 {
			pinned = st.SpillStats().Pinned
			panic("injected read fault")
		}
	})
	errorsBefore := s.Metrics().Snapshot().QueryErrors
	rec := do(t, h, "POST", "/query", queryRequest{Cube: "wf", Query: query})
	st.SetReadHook(nil)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "query panicked") {
		t.Fatalf("panicking query = %d %s, want 500 naming the panic", rec.Code, rec.Body)
	}
	if pinned == 0 {
		t.Fatal("no chunk was pinned when the scan panicked; test is vacuous")
	}
	snap := s.Metrics().Snapshot()
	if snap.QueryErrors != errorsBefore+1 {
		t.Fatalf("query_errors = %d, want %d", snap.QueryErrors, errorsBefore+1)
	}
	if snap.Pool.Pinned != 0 {
		t.Fatalf("%d chunks still pinned after the panic (%d at the panic)", snap.Pool.Pinned, pinned)
	}

	var resp queryResponse
	decode(t, do(t, h, "POST", "/query", queryRequest{Cube: "wf", Query: query}), http.StatusOK, &resp)
	if resp.Stats.MergeEdges == 0 {
		t.Fatal("the query's plan has no merge edges: nothing would be pinned")
	}
}
