package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"whatifolap/internal/core"
	"whatifolap/internal/trace"
)

func TestQuantileInterpolation(t *testing.T) {
	// Two buckets: (0, 10], (10, 20], then +Inf.
	h := newHistogram([]float64{10, 20})

	// Empty histogram reports 0.
	if got := h.read().quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}

	// Single sample at 4: rank clamps to 1 within the first bucket of
	// one observation, so every quantile interpolates across the full
	// bucket: 0 + 10*(1-0)/1 = 10... for q where rank>=1. Low q keeps
	// rank at the 1-sample floor, so all quantiles agree.
	h.observe(4)
	if p50, p99 := h.read().quantile(0.5), h.read().quantile(0.99); p50 != p99 {
		t.Fatalf("single sample: p50 %v != p99 %v", p50, p99)
	}
	if got := h.read().quantile(0.5); got <= 0 || got > 10 {
		t.Fatalf("single-sample quantile %v outside its bucket (0,10]", got)
	}

	// 10 samples in the first bucket, 10 in the second: the median rank
	// sits exactly at the first bucket's edge and must return the bound
	// itself, not jump into the next bucket.
	h2 := newHistogram([]float64{10, 20})
	for i := 0; i < 10; i++ {
		h2.observe(5)
	}
	for i := 0; i < 10; i++ {
		h2.observe(15)
	}
	if got := h2.read().quantile(0.5); math.Abs(got-10) > 1e-9 {
		t.Fatalf("edge-rank p50 = %v, want 10", got)
	}
	// p75: rank 15 → 5 of the second bucket's 10 samples → halfway
	// through (10, 20] = 15.
	if got := h2.read().quantile(0.75); math.Abs(got-15) > 1e-9 {
		t.Fatalf("interpolated p75 = %v, want 15", got)
	}
	// p25: rank 5 → halfway through (0, 10] = 5.
	if got := h2.read().quantile(0.25); math.Abs(got-5) > 1e-9 {
		t.Fatalf("interpolated p25 = %v, want 5", got)
	}

	// Samples beyond the last finite bound land in +Inf and clamp to the
	// largest finite bound — there is no upper edge to interpolate to.
	h3 := newHistogram([]float64{10, 20})
	for i := 0; i < 4; i++ {
		h3.observe(1000)
	}
	if got := h3.read().quantile(0.99); got != 20 {
		t.Fatalf("+Inf-bucket quantile = %v, want clamp to 20", got)
	}
}

// promParse is a minimal text-format 0.0.4 reader: it returns every
// sample line as name{labels} -> value and checks structural rules
// (TYPE before samples, cumulative le buckets ending at +Inf, _count
// consistent with the +Inf bucket).
func promParse(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	var bucketCum float64
	var bucketFamily string
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated labels: %q", ln+1, line)
			}
			name = name[:i]
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			family = strings.TrimSuffix(family, suf)
		}
		if typed[family] == "" && typed[name] == "" {
			t.Fatalf("line %d: sample %q precedes its TYPE line", ln+1, name)
		}
		if strings.HasSuffix(name, "_bucket") {
			if family != bucketFamily {
				bucketFamily, bucketCum = family, 0
			}
			if val < bucketCum {
				t.Fatalf("line %d: non-cumulative bucket: %q after %v", ln+1, line, bucketCum)
			}
			bucketCum = val
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %q", ln+1, key)
		}
		samples[key] = val
	}
	return samples
}

func TestPromExpositionRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.QueriesServed.Add(3)
	m.CacheHits.Add(1)
	m.CacheMisses.Add(2)
	m.CountSemantics("dynamic-forward")
	m.ObserveLatency(2 * time.Millisecond)
	m.ObserveLatency(700 * time.Millisecond)
	m.ObserveStages(core.Stats{PlanMs: 1, ScanMs: 4, ProjectMs: 2})

	tr := trace.New(0)
	root := tr.Start(trace.SpanRef{}, "eval")
	scan := tr.Start(root, "scan")
	scan.Int("chunks_read", 7)
	scan.End()
	root.End()
	m.ObserveTrace(tr.Spans())

	var buf bytes.Buffer
	m.WriteProm(&buf)
	samples := promParse(t, buf.String())

	if got := samples["whatif_queries_served_total"]; got != 3 {
		t.Fatalf("queries_served = %v, want 3", got)
	}
	if got := samples[`whatif_queries_by_semantics_total{semantics="dynamic-forward"}`]; got != 1 {
		t.Fatalf("by_semantics sample = %v, want 1", got)
	}
	if got := samples["whatif_query_latency_ms_count"]; got != 2 {
		t.Fatalf("latency count = %v, want 2", got)
	}
	if got := samples[`whatif_query_latency_ms_bucket{le="+Inf"}`]; got != 2 {
		t.Fatalf("latency +Inf bucket = %v, want 2", got)
	}
	sum := samples["whatif_query_latency_ms_sum"]
	if math.Abs(sum-702) > 1 {
		t.Fatalf("latency sum = %v, want ~702", sum)
	}
	if got := samples["whatif_query_chunks_read_count"]; got != 1 {
		t.Fatalf("chunks_read count = %v, want 1", got)
	}
	// The 7-chunk observation lands in the (5, 10] bucket and every
	// cumulative bucket at or above it.
	if got := samples[`whatif_query_chunks_read_bucket{le="10"}`]; got != 1 {
		t.Fatalf("chunks_read le=10 bucket = %v, want 1", got)
	}
	if got := samples[`whatif_query_chunks_read_bucket{le="5"}`]; got != 0 {
		t.Fatalf("chunks_read le=5 bucket = %v, want 0", got)
	}
	if got := samples["whatif_stage_ms_total{stage=\"scan\"}"]; math.Abs(got-4) > 0.01 {
		t.Fatalf("stage scan total = %v, want 4", got)
	}

	// Every histogram family renders the full structure.
	for _, fam := range []string{
		"whatif_query_latency_ms", "whatif_query_chunks_read", "whatif_segment_read_ms",
	} {
		for _, suf := range []string{`_bucket{le="+Inf"}`, "_sum", "_count"} {
			if _, ok := samples[fam+suf]; !ok {
				t.Fatalf("family %s missing %s sample", fam, suf)
			}
		}
	}
}

// TestConcurrentMetricsTraceObservers hammers every metrics update path
// while snapshots and prom expositions run; run under -race this pins
// the lock-free design.
func TestConcurrentMetricsTraceObservers(t *testing.T) {
	m := NewMetrics()
	tr := trace.New(0)
	root := tr.Start(trace.SpanRef{}, "eval")
	sc := tr.Start(root, "scan")
	sc.Int("chunks_read", 3)
	f := tr.Start(sc, "fault")
	f.End()
	sc.End()
	root.End()
	spans := tr.Spans()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.ObserveStages(core.Stats{PlanMs: 0.1, ScanMs: 0.2})
				m.ObserveTrace(spans)
				m.ObserveLatency(time.Duration(i) * time.Microsecond)
				m.CountSemantics("plain")
				m.QueriesServed.Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = m.Snapshot()
			var buf bytes.Buffer
			m.WriteProm(&buf)
		}
	}()
	wg.Wait()
	<-done

	s := m.Snapshot()
	if s.QueriesServed != 800 || s.Latency.Count != 800 {
		t.Fatalf("lost updates: served=%d latency=%d, want 800/800", s.QueriesServed, s.Latency.Count)
	}
	if m.chunksRead.read().count() != 800 || m.segmentReadMs.read().count() != 800 {
		t.Fatalf("lost trace observations: chunks=%d faults=%d",
			m.chunksRead.read().count(), m.segmentReadMs.read().count())
	}
}

func TestServerSlowlogRendersRetainedTrace(t *testing.T) {
	// Threshold so low every query is slow.
	s := newPaperServer(t, Config{SlowQueryMs: 0.000001})
	h := s.Handler()

	rec := postQuery(t, h, queryRequest{Query: paperQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d: %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/slowlog", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/slowlog = %d", rec.Code)
	}
	var resp slowlogResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 1 || len(resp.Queries) != 1 {
		t.Fatalf("slowlog = %+v, want exactly one record", resp)
	}
	r := resp.Queries[0]
	if r.Cube != "paper" || r.LatencyMs <= 0 {
		t.Fatalf("bad record: %+v", r)
	}
	if !strings.Contains(r.Query, "PERSPECTIVE") {
		t.Fatalf("record lacks normalized query: %q", r.Query)
	}
	for _, span := range []string{"eval", "scan", "chunks_read"} {
		if !strings.Contains(r.Trace, span) {
			t.Fatalf("trace missing %q:\n%s", span, r.Trace)
		}
	}
	if s.Metrics().SlowQueries.Load() != 1 {
		t.Fatalf("SlowQueries = %d, want 1", s.Metrics().SlowQueries.Load())
	}

	// A negative threshold disables the log entirely.
	s2 := newPaperServer(t, Config{SlowQueryMs: -1})
	h2 := s2.Handler()
	if rec := postQuery(t, h2, queryRequest{Query: paperQuery}); rec.Code != http.StatusOK {
		t.Fatalf("query = %d", rec.Code)
	}
	if n, total := len(s2.slowQueries()), s2.Metrics().SlowQueries.Load(); n != 0 || total != 0 {
		t.Fatalf("disabled slowlog holds %d entries of %d", n, total)
	}

	// Without a trace ring the log keeps no entries, yet total still
	// counts every slow query.
	s3 := newPaperServer(t, Config{SlowQueryMs: 0.000001, RetainTraceBytes: -1})
	h3 := s3.Handler()
	if rec := postQuery(t, h3, queryRequest{Query: paperQuery}); rec.Code != http.StatusOK {
		t.Fatalf("query = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h3.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/slowlog", nil))
	resp = slowlogResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 1 || resp.Queries == nil || len(resp.Queries) != 0 {
		t.Fatalf("slowlog without retention = %+v, want total 1 and an empty list", resp)
	}
}

// TestDroppedSpansRenderAlike: a trace whose buffer overflowed says so
// in the same words wherever it is rendered — the recorder's own
// Render, /debug/trace/{id} and /debug/slowlog.
func TestDroppedSpansRenderAlike(t *testing.T) {
	s := newPaperServer(t, Config{SlowQueryMs: 0.000001})
	h := s.Handler()

	tr := trace.New(2)
	root := tr.Start(trace.SpanRef{}, "eval")
	tr.Start(root, "plan").End()
	tr.Start(root, "scan").End() // the buffer is full: dropped
	root.End()
	want := tr.Render()
	if !strings.Contains(want, "(+1 spans dropped: buffer full)") {
		t.Fatalf("recorder rendering lacks the dropped line:\n%s", want)
	}
	id := s.recordTrace(tr, cacheKey{Cube: "paper", Query: "q"}, time.Millisecond, nil)
	if id == "" {
		t.Fatal("slow trace not retained")
	}

	var tresp TraceResponse
	decode(t, do(t, h, "GET", "/debug/trace/"+id, nil), http.StatusOK, &tresp)
	if tresp.Rendered != want {
		t.Fatalf("/debug/trace/%s rendered\n%s\nwant\n%s", id, tresp.Rendered, want)
	}
	var slow slowlogResponse
	decode(t, do(t, h, "GET", "/debug/slowlog", nil), http.StatusOK, &slow)
	if len(slow.Queries) != 1 || slow.Queries[0].TraceID != id || slow.Queries[0].Trace != want {
		t.Fatalf("/debug/slowlog = %+v, want one entry for %s rendered\n%s", slow.Queries, id, want)
	}
}

func TestServerExplainEndpoints(t *testing.T) {
	s := newPaperServer(t, Config{CacheBytes: 1 << 20})
	h := s.Handler()

	// Plain EXPLAIN: pure planning, no execution.
	rec := postQuery(t, h, queryRequest{Query: "EXPLAIN " + paperQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("EXPLAIN = %d: %s", rec.Code, rec.Body)
	}
	var resp explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Analyze || resp.Stats != nil {
		t.Fatalf("EXPLAIN executed the query: %+v", resp)
	}
	if !strings.Contains(resp.Explain, "path:") {
		t.Fatalf("EXPLAIN output lacks plan: %q", resp.Explain)
	}

	// EXPLAIN ANALYZE: traced execution with reconciled totals.
	rec = postQuery(t, h, queryRequest{Query: "EXPLAIN ANALYZE " + paperQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("EXPLAIN ANALYZE = %d: %s", rec.Code, rec.Body)
	}
	resp = explainResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Analyze || resp.Stats == nil || resp.Stats.ChunksRead == 0 {
		t.Fatalf("EXPLAIN ANALYZE did not execute: %+v", resp)
	}
	for _, want := range []string{"eval", "scan", "plan.targets", "plan.graph", "plan.pebble", "plan.groups", "totals:", "stats:"} {
		if !strings.Contains(resp.Explain, want) {
			t.Fatalf("analysis missing %q:\n%s", want, resp.Explain)
		}
	}

	// EXPLAIN responses bypass the cache: same query twice, still a MISS.
	rec = postQuery(t, h, queryRequest{Query: "EXPLAIN " + paperQuery})
	if rec.Header().Get("X-Cache") == "HIT" {
		t.Fatal("EXPLAIN response came from the result cache")
	}

	// /metrics?format=prom serves scrape-ready text.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("/metrics?format=prom = %d", rec2.Code)
	}
	if ct := rec2.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("prom content type = %q", ct)
	}
	samples := promParse(t, rec2.Body.String())
	if samples["whatif_queries_served_total"] < 3 {
		t.Fatalf("prom queries_served = %v, want >= 3", samples["whatif_queries_served_total"])
	}
	// The cache's effective limit is exported next to its size, in both
	// renderings: it starts at the initial limit, under the 1 MiB budget.
	if got := samples["whatif_cache_limit_bytes"]; got != initialCacheLimit {
		t.Fatalf("prom whatif_cache_limit_bytes = %v, want %d", got, initialCacheLimit)
	}
	if snap := s.metrics.Snapshot(); snap.CacheLimitBytes != initialCacheLimit || snap.CacheBytes > snap.CacheLimitBytes {
		t.Fatalf("/metrics cache_bytes %d, cache_limit_bytes %d", snap.CacheBytes, snap.CacheLimitBytes)
	}
}
