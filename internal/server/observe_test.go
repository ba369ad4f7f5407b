package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"whatifolap/internal/core"
	"whatifolap/internal/mdx"
	"whatifolap/internal/perspective"
	"whatifolap/internal/result"
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

// queryTrace is a finished engine query's span tree: a perspective
// plan that evaluated Φ, a scan of chunks chunk reads, and one fault.
func queryTrace(chunks int64) []trace.Span {
	tr := trace.New(0)
	root := tr.Start(trace.SpanRef{}, "eval")
	plan := tr.Start(root, "plan")
	plan.Int("phi_cached", 0)
	plan.End()
	scan := tr.Start(root, "scan")
	scan.Int("chunks_read", chunks)
	tr.Start(scan, "fault").End()
	scan.End()
	root.End()
	return tr.Spans()
}

func TestPromExpositionRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.QueriesServed.Add(3)
	m.CacheHits.Add(1)
	m.CacheMisses.Add(2)
	m.bySem[classSemantics+int(perspective.Forward)].Add(1)
	m.ObserveScenario("s1", 3*time.Millisecond)
	m.ObserveLatency(2 * time.Millisecond)
	m.ObserveLatency(700 * time.Millisecond)
	m.observeQuery(queryTrace(7), core.Stats{PlanMs: 1, ScanMs: 4, ProjectMs: 2}, nil)

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
	if got := samples["whatif_plan_memo_misses_total"]; got != 1 {
		t.Fatalf("plan memo misses = %v, want 1", got)
	}

	// Every declared family renders: a histogram its full structure, a
	// labeled family one sample per key, any other its one sample.
	for _, fam := range promFamilies() {
		switch {
		case fam.kind == "histogram":
			for _, suf := range []string{`_bucket{le="+Inf"}`, "_sum", "_count"} {
				if _, ok := samples[fam.name+suf]; !ok {
					t.Fatalf("family %s missing %s sample", fam.name, suf)
				}
			}
		case fam.label != "":
			n := 0
			for k := range samples {
				if strings.HasPrefix(k, fam.name+"{"+fam.label+"=") {
					n++
				}
			}
			if n == 0 {
				t.Fatalf("labeled family %s has no sample", fam.name)
			}
		default:
			if _, ok := samples[fam.name]; !ok {
				t.Fatalf("family %s has no sample", fam.name)
			}
		}
	}
}

// promFamily is one declared Prometheus family: the field declaring
// it, and its name, type, help and (on a map's family) label.
type promFamily struct{ field, name, kind, help, label string }

// promFamilies lists the declared families in declaration order.
func promFamilies() (fams []promFamily) {
	fields(reflect.TypeOf(MetricsSnapshot{}), nil, func(f reflect.StructField, _ []int) {
		add := func(tag reflect.StructTag) {
			if name, kind, _ := strings.Cut(tag.Get("prom"), ","); name != "" {
				fams = append(fams, promFamily{f.Name, name, kind, tag.Get("help"), f.Tag.Get("label")})
			}
		}
		if f.Type.Kind() == reflect.Map && f.Type.Elem().Kind() == reflect.Struct {
			fields(f.Type.Elem(), nil, func(ef reflect.StructField, _ []int) { add(ef.Tag) })
		} else {
			add(f.Tag)
		}
	})
	return fams
}

// TestMetricDeclarationsOnEverySurface: each declaration appears on
// every surface its tags name — its JSON key on /metrics, its family
// with HELP and TYPE on the Prometheus exposition, its history keys in
// each /metrics/history sample, its -top row — and no family or history
// key is declared twice.
func TestMetricDeclarationsOnEverySurface(t *testing.T) {
	s := newPaperServer(t, Config{CacheBytes: 1 << 20, ObsInterval: -1})
	h := s.Handler()
	var sc scenarioInfoJSON
	decode(t, do(t, h, "POST", "/scenarios", map[string]string{"name": "decl"}), http.StatusCreated, &sc)
	decode(t, do(t, h, "POST", "/scenarios/"+sc.ID+"/query", queryRequest{Query: paperQuery}), http.StatusOK, nil)
	s.sampler.sample()

	get := func(path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	lines, err := wireJSONPaths(get("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	paths := strings.Join(lines, "\n") + "\n"
	prom := string(get("/metrics?format=prom"))
	var hist HistoryResponse
	if err := json.Unmarshal(get("/metrics/history"), &hist); err != nil || len(hist.Samples) != 1 {
		t.Fatalf("history = %+v, %v; want one sample", hist, err)
	}
	sample := hist.Samples[0]
	topKeys := map[string]string{}
	for _, row := range TopRows() {
		for _, k := range row.Keys {
			topKeys[k] = row.Name
		}
	}

	families := map[string]bool{}
	for _, fam := range promFamilies() {
		if families[fam.name] {
			t.Errorf("%s: family %s declared twice", fam.field, fam.name)
		}
		families[fam.name] = true
		for _, want := range []string{"# HELP " + fam.name + " " + fam.help + "\n", "# TYPE " + fam.name + " " + fam.kind + "\n"} {
			if fam.help == "" || !strings.Contains(prom, want) {
				t.Errorf("%s: prom exposition lacks %q", fam.field, want)
			}
		}
	}
	snapType := reflect.TypeOf(MetricsSnapshot{})
	fields(snapType, nil, func(f reflect.StructField, index []int) {
		if f.Tag.Get("prom") == "" && f.Tag.Get("hist") == "" && f.Tag.Get("label") == "" {
			return
		}
		var jsonPath []string
		for i := range index {
			name, _, _ := strings.Cut(snapType.FieldByIndex(index[:i+1]).Tag.Get("json"), ",")
			jsonPath = append(jsonPath, name)
		}
		if jp := strings.Join(jsonPath, "."); !strings.Contains(jp, "-") && !strings.Contains("\n"+paths, "\n"+jp) {
			t.Errorf("%s: no /metrics key %s", f.Name, jp)
		}
	})
	keys := map[string]bool{}
	new(MetricsSnapshot).history(func(f reflect.StructField, key string, _ float64) {
		if keys[key] {
			t.Errorf("%s: history key %s declared twice", f.Name, key)
		}
		keys[key] = true
		if _, ok := sample.Get(key); !ok {
			t.Errorf("%s: history sample lacks %s", f.Name, key)
		}
		if row, _, _ := strings.Cut(f.Tag.Get("top"), ","); row != "" && topKeys[key] != row {
			t.Errorf("%s: -top row %q lacks %s", f.Name, row, key)
		}
	})
	if len(sample.Keys) != len(keys) || len(keys) == 0 {
		t.Errorf("history sample holds %d keys, %d declared", len(sample.Keys), len(keys))
	}
}

// TestObserveQueryZeroAllocs pins the per-query feed, and the query
// class count, at zero allocations.
func TestObserveQueryZeroAllocs(t *testing.T) {
	m := NewMetrics()
	spans := queryTrace(3)
	grid := &result.Grid{Values: [][]float64{{1, 2}, {3, 4}}}
	stats := core.Stats{PlanMs: 0.1, ScanMs: 0.2, CellsScanned: 8}
	if allocs := testing.AllocsPerRun(100, func() { m.observeQuery(spans, stats, grid) }); allocs != 0 {
		t.Fatalf("observeQuery: %v allocs per query, want 0", allocs)
	}
	q := mdx.MustParse(paperQuery)
	if allocs := testing.AllocsPerRun(100, func() { m.bySem[classify(q)].Add(1) }); allocs != 0 {
		t.Fatalf("query class count: %v allocs per query, want 0", allocs)
	}
	if got := m.Snapshot().BySemantics["dynamic-forward"]; got != 101 {
		t.Fatalf("by_semantics dynamic-forward = %d, want 101", got)
	}
}

// TestConcurrentMetricsTraceObservers hammers every metrics update path
// while snapshots and prom expositions run; run under -race this pins
// the lock-free design.
// Stage totals count engine-run queries only: a plain query answered
// on the algebra path has no plan or scan to add, and leaves stage_ms
// and its count where they were.
func TestStageTotalsCountEngineQueriesOnly(t *testing.T) {
	s := newPaperServer(t, Config{})
	h := s.Handler()
	plain := `SELECT {[Time].[Qtr1]} ON COLUMNS, {[PTE].Children} ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Salary])`
	for _, step := range []struct {
		query string
		want  int64
	}{{plain, 0}, {paperQuery, 1}} {
		if rec := postQuery(t, h, queryRequest{Query: step.query}); rec.Code != http.StatusOK {
			t.Fatalf("query = %d: %s", rec.Code, rec.Body)
		}
		if got := s.Metrics().Snapshot().Stages; got.Count != step.want {
			t.Fatalf("after %.30q: stage_ms = %+v, want count %d", step.query, got, step.want)
		}
	}
}

func TestConcurrentMetricsTraceObservers(t *testing.T) {
	m := NewMetrics()
	spans := queryTrace(3)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.observeQuery(spans, core.Stats{PlanMs: 0.1, ScanMs: 0.2}, nil)
				m.ObserveLatency(time.Duration(i) * time.Microsecond)
				m.bySem[classPlain].Add(1)
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
	if m.chunksRead.read().count() != 800 || m.segmentRead.read().count() != 800 {
		t.Fatalf("lost trace observations: chunks=%d faults=%d",
			m.chunksRead.read().count(), m.segmentRead.read().count())
	}
	if s.Stages.Count != 800 || s.PlanMemoMisses != 800 || s.BySemantics["plain"] != 800 {
		t.Fatalf("lost updates: stages=%d memo misses=%d plain=%d, want 800 each", s.Stages.Count, s.PlanMemoMisses, s.BySemantics["plain"])
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
