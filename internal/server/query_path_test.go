package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"whatifolap/internal/chunk"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/segment"
	"whatifolap/internal/workload"
)

// Bodies of both query endpoints for paperQuery on the paper cube (a
// fresh scenario "s1" with zero edits on the scenario path), captured
// at the parent of the commit that folded the two handlers into
// serveQuery. Field order, the omitted scenario fields on /query and the
// spelled-out "scenario_revision":0 are all part of the wire contract.
//
// Re-recorded once since, in the stats and the EXPLAIN text only, when
// the engine began to plan from the grid's leaf footprint: the slicer
// names NY and Salary, so the chunk of the measures Salary shares no
// chunk with (group rest=(·,0,0,1)) is no longer read, and of the chunks
// still read only the NY / Salary cells are written — chunks_read 5 → 4,
// cells_relocated 21 → 8, merge_groups 3 → 2 — and EXPLAIN gained its
// footprint line. Columns, rows and values are the parent's bytes.
//
// Re-recorded a second time when the scan became serial only: the grid
// lost its "scan_workers":1 and plain EXPLAIN its all-zero "stats"
// object (it executes nothing, so it reports no statistics).
//
// Re-recorded a third time, in the stats and the physical-plan header
// only, when the engine stopped relocating Φ's fixed points: Tom and
// Dave have one instance valid all year, so their cells are read as
// base rows and only PTE/Joe's are relocated — cells_relocated 8 → 2 —
// and the header names the scope, the members Φ moves and the chunks
// the scan reads for base cells alone.
const (
	goldenGrid = `"columns":["Qtr1","Qtr1/Jan","Qtr1/Feb","Qtr1/Mar","Qtr2","Qtr2/Apr","Qtr2/May","Qtr2/Jun","Qtr3","Qtr3/Jul","Qtr3/Aug","Qtr3/Sep","Qtr4","Qtr4/Oct","Qtr4/Nov","Qtr4/Dec"],` +
		`"rows":["PTE/Tom","PTE/Dave","PTE/Joe"],` +
		`"values":[[30,10,10,10,30,10,10,10,null,null,null,null,null,null,null,null],[null,null,null,null,null,null,null,null,null,null,null,null,null,null,null,null],[40,null,10,30,null,null,null,null,null,null,null,null,null,null,null,null]],` +
		`"stats":{"members_in_scope":3,"chunks_read":4,"cells_relocated":2,"merge_edges":1,"merge_groups":2}}` + "\n"
	goldenExplain      = `"analyze":false,"explain":"path: perspective-cube engine (DYNAMIC FORWARD on Organization, 2 perspectives, VISUAL)\nfootprint: Organization 3/8, Location 1/8, Time 12/12, Measures 1/4; 4 relocated and 0 base-only of 8 source chunks on the grid\nproject: fused\nphysical plan: scope 3 members, 1 moved by Φ; 4 relevant chunks, 0 base-only chunks, 2 merge groups, 1 merge edges\n  read order pebbling, peak resident chunks 2\n  schedule:  [24 48 26 50]\n  group 0   rest=(·,0,0,0): 2 chunks [24 48], 1 edges, peak 2\n  group 1   rest=(·,0,1,0): 2 chunks [26 50], 0 edges, peak 1\n"}` + "\n"
	goldenPlainHead    = `{"cube":"paper","version":1,`
	goldenScenarioHead = `{"cube":"paper","version":1,"scenario":"s1","scenario_revision":0,`
)

// TestQueryEndpointsShareOnePath runs the same assertions against
// /query and against /scenarios/{id}/query on a scenario with zero
// edits: the two are one code path behind different targets, so they
// must agree on the grid and the stats, keep MISS and HIT bodies
// byte-identical, and still put the parent commit's bytes on the wire.
func TestQueryEndpointsShareOnePath(t *testing.T) {
	s := newPaperServer(t, Config{CacheBytes: 1 << 20})
	h := s.Handler()
	var sc scenarioInfoJSON
	decode(t, do(t, h, "POST", "/scenarios", scenarioCreateRequest{Name: "g"}), http.StatusCreated, &sc)
	if sc.ID != "s1" {
		t.Fatalf("scenario id = %q, the goldens assume s1", sc.ID)
	}

	endpoints := []struct {
		name, path, head string
	}{
		{"plain", "/query", goldenPlainHead},
		// The scenario path's EXPLAIN body is new at this commit (the
		// parent refused it with a 422); it is the plain body under the
		// scenario head.
		{"scenario", "/scenarios/s1/query", goldenScenarioHead},
	}
	grids := make([]queryResponse, len(endpoints))
	for i, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			miss := do(t, h, "POST", ep.path, queryRequest{Query: paperQuery})
			decode(t, miss, http.StatusOK, &grids[i])
			if got := miss.Header().Get("X-Cache"); got != "MISS" {
				t.Fatalf("first X-Cache = %q, want MISS", got)
			}
			if got := miss.Header().Get("X-Cube-Version"); got != "1" {
				t.Fatalf("X-Cube-Version = %q, want 1", got)
			}
			if got, want := miss.Body.String(), ep.head+goldenGrid; got != want {
				t.Fatalf("success body drifted from the parent's\n got %s\nwant %s", got, want)
			}
			hit := do(t, h, "POST", ep.path, queryRequest{Query: strings.ToLower(paperQuery[:5]) + paperQuery[5:]})
			if got := hit.Header().Get("X-Cache"); got != "HIT" {
				t.Fatalf("repeat X-Cache = %q, want HIT", got)
			}
			if hit.Body.String() != miss.Body.String() {
				t.Fatalf("HIT body differs from MISS body\n hit %s\nmiss %s", hit.Body, miss.Body)
			}
			ex := do(t, h, "POST", ep.path, queryRequest{Query: "EXPLAIN " + paperQuery})
			if ex.Code != http.StatusOK {
				t.Fatalf("EXPLAIN = %d: %s", ex.Code, ex.Body)
			}
			if got, want := ex.Body.String(), ep.head+goldenExplain; got != want {
				t.Fatalf("EXPLAIN body drifted from the parent's\n got %s\nwant %s", got, want)
			}
			if ex.Header().Get("X-Cache") != "" {
				t.Fatalf("EXPLAIN carries X-Cache %q; it never touches the cache", ex.Header().Get("X-Cache"))
			}
		})
	}
	plain, scen := grids[0], grids[1]
	if fmt.Sprint(plain.Columns, plain.Rows, plain.Stats) != fmt.Sprint(scen.Columns, scen.Rows, scen.Stats) {
		t.Fatalf("endpoints disagree:\n plain %+v\n scenario %+v", plain, scen)
	}
	pv, _ := json.Marshal(plain.Values)
	sv, _ := json.Marshal(scen.Values)
	if string(pv) != string(sv) {
		t.Fatalf("endpoints disagree on values:\n plain %s\n scenario %s", pv, sv)
	}
	if plain.Scenario != "" || plain.ScenarioRevision != nil {
		t.Fatalf("/query body carries scenario fields: %+v", plain.responseHead)
	}
	if scen.Scenario != "s1" || scen.ScenarioRevision == nil || *scen.ScenarioRevision != 0 {
		t.Fatalf("scenario body head = %+v, want s1 at revision 0", scen.responseHead)
	}
}

// TestExplainSkipsCacheAndCountsLatency pins the two accounting bugs
// the shared path fixed: EXPLAIN is never cacheable, so it must not
// look up (and count a miss, dragging cache_hit_ratio down), and every
// served request observes latency exactly once.
func TestExplainSkipsCacheAndCountsLatency(t *testing.T) {
	s := newPaperServer(t, Config{CacheBytes: 1 << 20})
	h := s.Handler()
	postQuery(t, h, queryRequest{Query: paperQuery})
	postQuery(t, h, queryRequest{Query: paperQuery})
	before := s.Metrics().Snapshot()
	if before.CacheMisses != 1 || before.CacheHits != 1 {
		t.Fatalf("warm-up: %d misses, %d hits, want 1 and 1", before.CacheMisses, before.CacheHits)
	}
	for _, q := range []string{"EXPLAIN " + paperQuery, "explain analyze " + paperQuery, "EXPLAIN " + paperQuery} {
		if rec := postQuery(t, h, queryRequest{Query: q}); rec.Code != http.StatusOK {
			t.Fatalf("%.16s = %d: %s", q, rec.Code, rec.Body)
		}
	}
	after := s.Metrics().Snapshot()
	if after.CacheMisses != before.CacheMisses || after.CacheHits != before.CacheHits {
		t.Fatalf("EXPLAIN touched the cache counters: misses %d→%d, hits %d→%d",
			before.CacheMisses, after.CacheMisses, before.CacheHits, after.CacheHits)
	}
	if after.CacheHitRatio != before.CacheHitRatio {
		t.Fatalf("cache_hit_ratio moved %v→%v under EXPLAIN", before.CacheHitRatio, after.CacheHitRatio)
	}
	if after.QueriesServed != 5 || after.Latency.Count != after.QueriesServed {
		t.Fatalf("queries_served = %d, latency.count = %d; want 5 and 5", after.QueriesServed, after.Latency.Count)
	}
	if s.cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want only the plain query's", s.cache.Len())
	}
}

// TestScenarioExplain covers what deleting the scenario handler's fork
// bought: EXPLAIN and EXPLAIN ANALYZE on /scenarios/{id}/query, over a
// chain the engine can run and over one with a wider layer.
func TestScenarioExplain(t *testing.T) {
	s, w := newWorkforceServer(t, Config{})
	h := s.Handler()
	dept := w.Cube.DimByName(workload.DimDepartment)
	inst := dept.Path(w.Cube.BindingFor(workload.DimDepartment).InstanceAt(w.Changing[0], 0))
	// VISUAL: the query names no period, so every cell rolls the year up,
	// and only a visual roll-up reads the perspective cube (under
	// NONVISUAL the footprint is empty and the plan has no group to show).
	persp := fmt.Sprintf(`
WITH PERSPECTIVE {(Jan), (Apr)} FOR Department DYNAMIC FORWARD VISUAL
SELECT {[Account].Levels(0).Members} ON COLUMNS, {[%s]} ON ROWS
FROM [App].[Db]
WHERE ([Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`, inst)

	edits := map[string][]map[string]interface{}{
		"engine": {{"op": "set", "cell": map[string]string{"Department": "Emp00012", "Period": "Mar", "Account": "Acct000"}, "value": 1}},
		"wide": {
			{"op": "new_member", "dim": "Account", "parent": "AllAccounts", "name": "Bonus"},
			{"op": "set", "cell": map[string]string{"Department": "Emp00010", "Period": "Jan", "Account": "Bonus"}, "value": 500},
		},
	}
	ids := map[string]string{}
	for name, batch := range edits {
		var sc scenarioInfoJSON
		decode(t, do(t, h, "POST", "/scenarios", map[string]string{"name": name}), http.StatusCreated, &sc)
		decode(t, do(t, h, "POST", "/scenarios/"+sc.ID+"/edit", map[string]interface{}{"edits": batch}), http.StatusOK, nil)
		ids[name] = sc.ID
	}
	explain := func(id, prefix string) explainResponse {
		t.Helper()
		var resp explainResponse
		decode(t, do(t, h, "POST", "/scenarios/"+id+"/query", queryRequest{Query: prefix + persp}), http.StatusOK, &resp)
		if resp.Scenario != id || resp.ScenarioRevision == nil || *resp.ScenarioRevision != 1 {
			t.Fatalf("explain head = %+v, want scenario %s at revision 1", resp.responseHead, id)
		}
		return resp
	}

	eng := explain(ids["engine"], "EXPLAIN ")
	for _, want := range []string{"path: perspective-cube engine (DYNAMIC FORWARD on Department", "merge groups", "schedule:", "group 0"} {
		if !strings.Contains(eng.Explain, want) {
			t.Fatalf("engine-capable chain: EXPLAIN lacks %q:\n%s", want, eng.Explain)
		}
	}
	if eng.Analyze || eng.Stats != nil {
		t.Fatalf("plain EXPLAIN executed: %+v", eng)
	}
	if wide := explain(ids["wide"], "EXPLAIN "); !strings.HasPrefix(wide.Explain, "path: algebra\n") {
		t.Fatalf("wide-layer chain: EXPLAIN = %q, want the algebra path", wide.Explain)
	}

	an := explain(ids["engine"], "EXPLAIN ANALYZE ")
	if !an.Analyze || an.Stats == nil || an.Stats.ChunksRead == 0 {
		t.Fatalf("EXPLAIN ANALYZE did not execute: %+v", an)
	}
	for _, want := range []string{"eval", "scenario_layers=1", "cells_overridden=1", "scan", "totals:", "stats:"} {
		if !strings.Contains(an.Explain, want) {
			t.Fatalf("analysis lacks %q:\n%s", want, an.Explain)
		}
	}
	if got := s.Metrics().Snapshot().QueryErrors; got != 0 {
		t.Fatalf("query_errors = %d after successful scenario EXPLAINs", got)
	}
}

// TestExplainAnalyzeIsObservedLikeAnyQuery: server-side EXPLAIN ANALYZE
// runs in the same closure, under the same pooled trace, as an ordinary
// query — so it reaches the slow-query log, trace retention and the
// trace-derived histograms, and a failing one retains its trace.
func TestExplainAnalyzeIsObservedLikeAnyQuery(t *testing.T) {
	// A threshold this low makes every query slow, hence always retained.
	s := newPaperServer(t, Config{SlowQueryMs: 0.000001})
	h := s.Handler()
	promCount := func(name string) float64 {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
		return promParse(t, rec.Body.String())[name]
	}
	chunksBefore := promCount("whatif_query_chunks_read_count")

	rec := postQuery(t, h, queryRequest{Query: "EXPLAIN ANALYZE " + paperQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("EXPLAIN ANALYZE = %d: %s", rec.Code, rec.Body)
	}
	id := rec.Header().Get("X-Trace-Id")
	if id == "" {
		t.Fatal("slow EXPLAIN ANALYZE lacks X-Trace-Id")
	}
	var tresp TraceResponse
	decode(t, do(t, h, "GET", "/debug/trace/"+id, nil), http.StatusOK, &tresp)
	if !strings.HasPrefix(tresp.Query, "EXPLAIN ANALYZE ") || len(tresp.Spans) == 0 {
		t.Fatalf("retained trace = %+v, want the EXPLAIN ANALYZE query with its spans", tresp)
	}
	records, total := s.slowQueries(), s.metrics.SlowQueries.Load()
	if total != 1 || records[0].TraceID != id || !strings.Contains(records[0].Trace, "scan") {
		t.Fatalf("slowlog = %+v (total %d), want one record linked to %s", records, total, id)
	}
	if got := promCount("whatif_query_chunks_read_count"); got != chunksBefore+1 {
		t.Fatalf("whatif_query_chunks_read_count = %v, want %v", got, chunksBefore+1)
	}
	if got := s.Metrics().Snapshot().CellsScanned; got == 0 {
		t.Fatal("cells_scanned did not move under EXPLAIN ANALYZE")
	}

	// A failing one: park the engine mid-read past a 1 ms deadline.
	snap, err := s.catalog.Acquire("paper")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	st := snap.Cube.Store().(*chunk.Store)
	releaseHook := make(chan struct{})
	var once sync.Once
	st.SetReadHook(func(int) { once.Do(func() { <-releaseHook }) })
	defer st.SetReadHook(nil)
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(releaseHook)
	}()
	rec = postQuery(t, h, queryRequest{Query: "EXPLAIN ANALYZE " + paperQuery, TimeoutMs: 1})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out EXPLAIN ANALYZE = %d, want 504: %s", rec.Code, rec.Body)
	}
	failedID := rec.Header().Get("X-Trace-Id")
	if failedID == "" {
		t.Fatal("failed EXPLAIN ANALYZE lacks X-Trace-Id")
	}
	decode(t, do(t, h, "GET", "/debug/trace/"+failedID, nil), http.StatusOK, &tresp)
	if tresp.Error == "" {
		t.Fatalf("retained trace of the failed query carries no error: %+v", tresp)
	}
}

// TestExplainAnalyzeReportsFaultTime: a cube reopened from its segment
// file behind a pool that holds one chunk faults on every read, and
// EXPLAIN ANALYZE says what those faults cost — as fault_ms on the stats
// line and fault_us on the scan span — so a cold query's time is
// attributable without a profiler.
func TestExplainAnalyzeReportsFaultTime(t *testing.T) {
	orig := paperdata.ChunkedWarehouse(nil)
	st := orig.Store().(*chunk.Store)
	var meta bytes.Buffer
	if err := workload.SaveSchema(orig, &meta); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "paper.seg")
	if err := segment.Create(path, st.Geometry().ChunkCap(), meta.Bytes(), st.ChunkIDs(), st.PeekChunk); err != nil {
		t.Fatal(err)
	}
	sf, err := segment.Open(path, segment.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sf.Close() })
	cold, err := workload.LoadSchema(bytes.NewReader(sf.Meta()))
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Store().(*chunk.Store).AttachTier(sf, 8*st.Geometry().ChunkCap()); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if err := cat.Register("paper", cold); err != nil {
		t.Fatal(err)
	}
	s := New(cat, Config{})
	t.Cleanup(s.Close)

	var resp explainResponse
	decode(t, postQuery(t, s.Handler(), queryRequest{Query: "EXPLAIN ANALYZE " + paperQuery}), http.StatusOK, &resp)
	number := func(pattern string) float64 {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(resp.Explain)
		if m == nil {
			t.Fatalf("no %s in:\n%s", pattern, resp.Explain)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	faults := number(`stats: .* spill_faults=(\d+)`)
	faultMs := number(`stats: .* fault_ms=([0-9.]+)`)
	scanMs := number(`totals: .* scan=([0-9.]+)ms`)
	spanUs := number(`(?m)^\s*scan .* fault_us=(\d+)`)
	if int(faults) != resp.Stats.ChunksRead {
		t.Fatalf("spill_faults = %v, want every one of the %d chunk reads to fault", faults, resp.Stats.ChunksRead)
	}
	if faultMs <= 0 || faultMs > scanMs {
		t.Fatalf("fault_ms = %v, want in (0, scan_ms = %v]", faultMs, scanMs)
	}
	if got := spanUs / 1000; got < faultMs-0.002 || got > faultMs+0.002 {
		t.Fatalf("scan span fault_us = %v, stats line fault_ms = %v", spanUs, faultMs)
	}
}
