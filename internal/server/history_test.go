package server

// Tests for the continuous-observability surface: interval quantiles,
// /metrics/history sampling, tail-sampled trace retention end to end,
// slowlog linkage, and lifecycle events.

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whatifolap/internal/obs"
)

func TestHistogramQuantileEdgeCases(t *testing.T) {
	// Empty recorder: every quantile is 0.
	h := newHistogram([]float64{10, 20})
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := h.read().quantile(q); got != 0 {
			t.Fatalf("empty quantile(%v) = %v, want 0", q, got)
		}
	}

	// No bounds at all: quantile must not panic.
	if got := (histReading{}).quantile(0.5); got != 0 {
		t.Fatalf("quantile of boundless histogram = %v, want 0", got)
	}

	// Single finite bucket: everything interpolates within (0, 10].
	h1 := newHistogram([]float64{10})
	h1.observe(3)
	h1.observe(7)
	for _, q := range []float64{0.5, 0.99} {
		if got := h1.read().quantile(q); got <= 0 || got > 10 {
			t.Fatalf("single-bucket quantile(%v) = %v, want within (0,10]", q, got)
		}
	}

	// All samples beyond the last finite bound land in +Inf: the
	// estimate clamps to the last finite bound instead of inventing an
	// upper edge.
	h2 := newHistogram([]float64{10, 20})
	for i := 0; i < 5; i++ {
		h2.observe(1e6)
	}
	for _, q := range []float64{0.5, 0.99} {
		if got := h2.read().quantile(q); got != 20 {
			t.Fatalf("+Inf-bucket quantile(%v) = %v, want clamp to 20", q, got)
		}
	}

	// Interval deltas: a second reading minus the first isolates the
	// new observations, and the shared kernel prices only those.
	h3 := newHistogram([]float64{10, 20})
	h3.observe(5)
	before := h3.read()
	h3.observe(15)
	h3.observe(15)
	delta := h3.read().minus(before)
	if got := delta.quantile(0.5); got <= 10 || got > 20 {
		t.Fatalf("interval quantile = %v, want within (10,20] (delta %v)", got, delta.counts)
	}
	if sum := delta.summary(); sum.Count != 2 || math.Abs(sum.MeanMs-15) > 1e-9 {
		t.Fatalf("interval summary = %+v, want 2 observations of mean 15", sum)
	}
}

// TestSnapshotQuantilesOrderedUnderLoad pins that one snapshot's
// quantiles describe one set of observations: with a few slow
// observations recorded and fast ones streaming in, reading the buckets
// anew for each quantile could put p50 above p95. More streamers than
// cores get the snapshotting goroutine preempted mid-snapshot, where
// the distribution moves fastest: right after the fast stream starts.
func TestSnapshotQuantilesOrderedUnderLoad(t *testing.T) {
	for round := 0; round < 200; round++ {
		m := NewMetrics()
		for i := 0; i < 50; i++ {
			m.ObserveLatency(900 * time.Millisecond)
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					m.ObserveLatency(50 * time.Microsecond)
				}
			}()
		}
		for i := 0; i < 50; i++ {
			l := m.Snapshot().Latency
			if l.P50Ms > l.P95Ms || l.P95Ms > l.P99Ms {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("round %d, snapshot %d: p50 %v, p95 %v, p99 %v out of order", round, i, l.P50Ms, l.P95Ms, l.P99Ms)
			}
		}
		stop.Store(true)
		wg.Wait()
	}
}

func TestMetricsHistoryEndpoint(t *testing.T) {
	// Collector disabled: the test drives sampling deterministically.
	s := newPaperServer(t, Config{CacheBytes: 1 << 20, ObsInterval: -1})
	h := s.Handler()

	// One miss, one hit of the same query.
	for i := 0; i < 2; i++ {
		if rec := postQuery(t, h, queryRequest{Query: paperQuery}); rec.Code != http.StatusOK {
			t.Fatalf("query = %d: %s", rec.Code, rec.Body)
		}
	}
	s.sampler.sample()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics/history", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics/history = %d: %s", rec.Code, rec.Body)
	}
	var hist HistoryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Total != 1 || len(hist.Samples) != 1 {
		t.Fatalf("history = total %d, %d samples; want 1", hist.Total, len(hist.Samples))
	}
	sm := hist.Samples[0]
	get := func(sm obs.Sample, key string) float64 {
		t.Helper()
		v, ok := sm.Get(key)
		if !ok {
			t.Fatalf("sample lacks %q: %+v", key, sm)
		}
		return v
	}
	if get(sm, "queries") != 2 || get(sm, "cache_hits") != 1 || get(sm, "cache_misses") != 1 {
		t.Fatalf("sample flow = %+v, want 2 queries, 1 hit, 1 miss", sm)
	}
	if math.Abs(get(sm, "cache_hit_ratio")-0.5) > 1e-9 {
		t.Fatalf("cache hit ratio = %v, want 0.5", get(sm, "cache_hit_ratio"))
	}
	if get(sm, "cache_bytes") <= 0 || get(sm, "cache_limit_bytes") != initialCacheLimit {
		t.Fatalf("cache gauges = %v bytes under a %v limit, want a body under the initial limit", get(sm, "cache_bytes"), get(sm, "cache_limit_bytes"))
	}
	scanned, returned := get(sm, "cells_scanned"), get(sm, "cells_returned")
	if scanned <= 0 || returned <= 0 {
		t.Fatalf("cells scanned/returned = %v/%v, want positive", scanned, returned)
	}
	if want := scanned / returned; math.Abs(get(sm, "scan_amplification")-want) > 1e-9 {
		t.Fatalf("scan amplification = %v, want %v", get(sm, "scan_amplification"), want)
	}
	if get(sm, "p50_ms") <= 0 || get(sm, "p99_ms") < get(sm, "p50_ms") {
		t.Fatalf("interval quantiles p50=%v p99=%v", get(sm, "p50_ms"), get(sm, "p99_ms"))
	}
	if get(sm, "qps") <= 0 || sm.IntervalMs <= 0 {
		t.Fatalf("qps=%v interval=%vms, want positive", get(sm, "qps"), sm.IntervalMs)
	}
	if get(sm, "pool_resident_chunks") <= 0 {
		t.Fatalf("pool resident chunks = %v, want positive (chunked cube)", get(sm, "pool_resident_chunks"))
	}
	// The paper query plans a perspective: Φ is evaluated once, then
	// the memo serves it (the repeat was a result-cache hit and planned
	// nothing).
	if get(sm, "plan_memo_misses") != 1 || get(sm, "plan_memo_hits") != 0 {
		t.Fatalf("plan memo = %v hits, %v misses, want 0 and 1", get(sm, "plan_memo_hits"), get(sm, "plan_memo_misses"))
	}

	// A quiet second interval: deltas zero, ratios use the -1 sentinel
	// so "no traffic" is distinguishable from "all misses".
	s.sampler.sample()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics/history", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Samples) != 2 {
		t.Fatalf("history has %d samples, want 2", len(hist.Samples))
	}
	quiet := hist.Samples[1]
	if get(quiet, "queries") != 0 || get(quiet, "cache_hit_ratio") != -1 || get(quiet, "scan_amplification") != -1 {
		t.Fatalf("quiet sample = %+v, want zero flow and -1 ratios", quiet)
	}
}

func TestRetainedTraceEndToEnd(t *testing.T) {
	// Threshold so low every query is slow, hence always retained.
	s := newPaperServer(t, Config{SlowQueryMs: 0.000001})
	h := s.Handler()

	rec := postQuery(t, h, queryRequest{Query: paperQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d: %s", rec.Code, rec.Body)
	}
	id := rec.Header().Get("X-Trace-Id")
	if id == "" {
		t.Fatal("slow query response lacks X-Trace-Id")
	}
	var qresp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qresp); err != nil {
		t.Fatal(err)
	}

	// The ID resolves to the full span tree.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace/%s = %d: %s", id, rec.Code, rec.Body)
	}
	var tresp TraceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tresp); err != nil {
		t.Fatal(err)
	}
	if tresp.ID != id || tresp.Reason != "slow" || tresp.Cube != "paper" {
		t.Fatalf("trace = %+v, want id %s, reason slow", tresp, id)
	}
	if tresp.LatencyMs <= 0 || len(tresp.Spans) == 0 {
		t.Fatalf("trace lacks substance: latency %v, %d spans", tresp.LatencyMs, len(tresp.Spans))
	}
	// The retained spans reconcile with the query's own stats: the scan
	// span recorded the same chunk reads the response reported.
	var sawScan bool
	for _, sp := range tresp.Spans {
		if sp.Name != "scan" {
			continue
		}
		sawScan = true
		if got := sp.Attrs["chunks_read"]; got != int64(qresp.Stats.ChunksRead) {
			t.Fatalf("scan span chunks_read = %d, response stats = %d", got, qresp.Stats.ChunksRead)
		}
		if sp.Attrs["cells_scanned"] <= 0 {
			t.Fatalf("scan span cells_scanned = %d, want positive", sp.Attrs["cells_scanned"])
		}
	}
	if !sawScan {
		t.Fatalf("no scan span among %d retained spans", len(tresp.Spans))
	}
	for _, name := range []string{"eval", "scan"} {
		if !strings.Contains(tresp.Rendered, name) {
			t.Fatalf("rendered tree missing %q:\n%s", name, tresp.Rendered)
		}
	}

	// The listing shows it; an unknown ID 404s.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	var list traceListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Stats.Count != 1 || len(list.Traces) != 1 || list.Traces[0].ID != id {
		t.Fatalf("trace list = %+v, want exactly %s", list, id)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/debug/trace/nope = %d, want 404", rec.Code)
	}

	// Retention disabled: no header, nothing resolvable.
	s2 := newPaperServer(t, Config{SlowQueryMs: 0.000001, RetainTraceBytes: -1})
	h2 := s2.Handler()
	rec = postQuery(t, h2, queryRequest{Query: paperQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d", rec.Code)
	}
	if got := rec.Header().Get("X-Trace-Id"); got != "" {
		t.Fatalf("retention disabled but X-Trace-Id = %q", got)
	}
}

func TestSlowlogTraceIDAndRevision(t *testing.T) {
	s, _ := newWorkforceServer(t, Config{SlowQueryMs: 0.000001})
	h := s.Handler()

	var sc scenarioInfoJSON
	decode(t, do(t, h, "POST", "/scenarios", map[string]string{"name": "slow"}), http.StatusCreated, &sc)
	decode(t, do(t, h, "POST", "/scenarios/"+sc.ID+"/edit", map[string]interface{}{
		"edits": []map[string]interface{}{
			{"op": "new_member", "dim": "Account", "parent": "AllAccounts", "name": "Bonus"},
			{"op": "set", "cell": map[string]string{"Department": "Emp00010", "Period": "Jan", "Account": "Bonus"}, "value": 500},
		},
	}), http.StatusOK, nil)

	rec := do(t, h, "POST", "/scenarios/"+sc.ID+"/query", queryRequest{Query: rollupQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("scenario query = %d: %s", rec.Code, rec.Body)
	}
	headerID := rec.Header().Get("X-Trace-Id")
	if headerID == "" {
		t.Fatal("slow scenario query lacks X-Trace-Id")
	}

	records, total := s.slowQueries(), s.metrics.SlowQueries.Load()
	if total != 1 || len(records) != 1 {
		t.Fatalf("slowlog = %d records, want 1", total)
	}
	r := records[0]
	if r.Scenario != sc.ID || r.ScenarioRev != 1 {
		t.Fatalf("slowlog record = %+v, want scenario %s at revision 1", r, sc.ID)
	}
	if r.TraceID != headerID {
		t.Fatalf("slowlog trace id %q != response header %q", r.TraceID, headerID)
	}

	// The linked trace carries the same scenario coordinates.
	var tresp TraceResponse
	decode(t, do(t, h, "GET", "/debug/trace/"+r.TraceID, nil), http.StatusOK, &tresp)
	if tresp.Scenario != sc.ID || tresp.ScenarioRev != 1 {
		t.Fatalf("retained trace = %+v, want scenario %s rev 1", tresp, sc.ID)
	}
}

func TestEventLogLifecycleEvents(t *testing.T) {
	s, _ := newWorkforceServer(t, Config{})
	h := s.Handler()

	var a, b scenarioInfoJSON
	decode(t, do(t, h, "POST", "/scenarios", map[string]string{"name": "a"}), http.StatusCreated, &a)
	decode(t, do(t, h, "POST", "/scenarios", map[string]string{"name": "b"}), http.StatusCreated, &b)
	decode(t, do(t, h, "POST", "/scenarios/"+a.ID+"/edit", map[string]interface{}{
		"edits": []map[string]interface{}{
			{"op": "new_member", "dim": "Account", "parent": "AllAccounts", "name": "Bonus"},
			{"op": "set", "cell": map[string]string{"Department": "Emp00010", "Period": "Jan", "Account": "Bonus"}, "value": 500},
		},
	}), http.StatusOK, nil)
	decode(t, do(t, h, "POST", "/scenarios/"+a.ID+"/commit", nil), http.StatusOK, nil)
	// b pinned the pre-commit version: its commit must conflict.
	decode(t, do(t, h, "POST", "/scenarios/"+b.ID+"/commit", nil), http.StatusConflict, nil)
	decode(t, do(t, h, "DELETE", "/scenarios/"+b.ID, nil), http.StatusOK, nil)

	rec := do(t, h, "GET", "/debug/events", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/events = %d", rec.Code)
	}
	var resp eventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	byType := map[string]int{}
	for _, e := range resp.Events {
		byType[e.Type]++
	}
	if byType["scenario_create"] != 2 {
		t.Fatalf("scenario_create events = %d, want 2 (%v)", byType["scenario_create"], byType)
	}
	for _, typ := range []string{"scenario_commit", "scenario_conflict", "scenario_delete"} {
		if byType[typ] != 1 {
			t.Fatalf("%s events = %d, want 1 (%v)", typ, byType[typ], byType)
		}
	}
	// Events carry their coordinates.
	for _, e := range resp.Events {
		if e.Type == "scenario_commit" && (e.Fields["scenario"] != a.ID || e.Fields["cube"] != "wf") {
			t.Fatalf("scenario_commit fields = %v", e.Fields)
		}
	}
}

func TestHistoryEvictionPressureEvents(t *testing.T) {
	s := newPaperServer(t, Config{ObsInterval: -1})

	// Substitute a synthetic pool so the test controls eviction deltas.
	evictions := 0
	s.metrics.gauges = func(ms *MetricsSnapshot) {
		ms.Pool = PoolSnapshot{Evictions: evictions, ResidentBytes: 1 << 20}
	}
	s.sampler = newObsSampler(s)

	count := func(typ string) int {
		events, _ := s.events.Snapshot()
		n := 0
		for _, e := range events {
			if e.Type == typ {
				n++
			}
		}
		return n
	}

	evictions = 5
	s.sampler.sample() // delta 5 > 0: pressure starts
	evictions = 9
	s.sampler.sample() // still evicting: no second event (edge-triggered)
	if got := count("eviction_pressure"); got != 1 {
		t.Fatalf("eviction_pressure events = %d, want 1", got)
	}
	if got := count("eviction_pressure_cleared"); got != 0 {
		t.Fatalf("premature eviction_pressure_cleared (%d)", got)
	}

	s.sampler.sample() // delta 0: pressure clears
	s.sampler.sample() // stays clear: no second event
	if got := count("eviction_pressure_cleared"); got != 1 {
		t.Fatalf("eviction_pressure_cleared events = %d, want 1", got)
	}
	if got := count("eviction_pressure"); got != 1 {
		t.Fatalf("eviction_pressure re-fired without an edge (%d)", got)
	}

	// The samples themselves carry the per-interval eviction deltas.
	samples := s.history.Snapshot()
	if len(samples) != 4 {
		t.Fatalf("history has %d samples, want 4", len(samples))
	}
	wantDeltas := []float64{5, 4, 0, 0}
	for i, want := range wantDeltas {
		if got, _ := samples[i].Get("pool_evictions"); got != want {
			t.Fatalf("sample %d eviction delta = %v, want %v", i, got, want)
		}
	}
}
