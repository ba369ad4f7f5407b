package server

import (
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// latencyBucketsMs are the upper bounds (milliseconds) of the latency
// histogram's exponential buckets; the final implicit bucket is +Inf.
var latencyBucketsMs = []float64{
	0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500,
	1000, 2000, 5000, 10000, 30000,
}

// spanBucketsMs bound the trace-derived segment-read histogram: an
// intra-query stage, so the range starts well below a millisecond.
var spanBucketsMs = []float64{
	0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 500,
}

// chunksReadBuckets bound the per-query chunk-read count histogram.
var chunksReadBuckets = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// histReading is one read of a histogram's buckets and sum. Everything
// derived from a reading — count, mean, every quantile, the prom
// buckets — describes the same observations, however many are recorded
// meanwhile; the history collector differences two readings into one
// interval's.
type histReading struct {
	bounds   []float64
	counts   []int64 // len(bounds)+1; the last bucket is +Inf
	sumMicro int64
}

// read takes one reading. Exposition-time only; the allocation is off
// the query path.
func (h *histogram) read() histReading {
	r := histReading{bounds: h.bounds, counts: make([]int64, len(h.counts)), sumMicro: h.sumMicro.Load()}
	for i := range h.counts {
		r.counts[i] = h.counts[i].Load()
	}
	return r
}

// minus is the reading of the observations made between prev and r.
func (r histReading) minus(prev histReading) histReading {
	d := histReading{bounds: r.bounds, counts: make([]int64, len(r.counts)), sumMicro: r.sumMicro - prev.sumMicro}
	for i := range d.counts {
		d.counts[i] = r.counts[i] - prev.counts[i]
	}
	return d
}

func (r histReading) count() int64 {
	var n int64
	for _, c := range r.counts {
		n += c
	}
	return n
}

// summary is the reading's count, mean and p50/p95/p99 — zero when it
// holds no observation — carrying the reading itself.
func (r histReading) summary() LatencySnapshot {
	s := LatencySnapshot{reading: r}
	if s.Count = r.count(); s.Count > 0 {
		s.MeanMs = float64(r.sumMicro) / 1e6 / float64(s.Count)
		s.P50Ms, s.P95Ms, s.P99Ms = r.quantile(0.50), r.quantile(0.95), r.quantile(0.99)
	}
	return s
}

// quantile estimates the q-th quantile (0 < q < 1) with linear
// interpolation inside the winning bucket (the Prometheus
// histogram_quantile convention): the estimate moves smoothly with the
// rank instead of jumping between bucket bounds. The first bucket
// interpolates from 0; a rank landing in the +Inf bucket clamps to the
// largest finite bound, since no upper edge exists to interpolate
// toward. An empty reading — a quiet recorder, or an interval with no
// observations — returns 0.
func (r histReading) quantile(q float64) float64 {
	total := r.count()
	if len(r.bounds) == 0 || total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i := range r.counts {
		n := float64(r.counts[i])
		if cum+n >= rank {
			if i >= len(r.bounds) {
				break
			}
			lo := 0.0
			if i > 0 {
				lo = r.bounds[i-1]
			}
			return lo + (r.bounds[i]-lo)*(rank-cum)/n
		}
		cum += n
	}
	return r.bounds[len(r.bounds)-1]
}

// LatencySnapshot summarizes one histogram reading (milliseconds for
// the duration histograms) and carries it, for the Prometheus buckets
// and the history collector's interval differencing.
type LatencySnapshot struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`

	reading histReading
}

// NewMetrics creates an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		start:       time.Now(),
		byScenario:  make(map[string]*scenarioStat),
		latency:     newHistogram(latencyBucketsMs),
		chunksRead:  newHistogram(chunksReadBuckets),
		segmentRead: newHistogram(spanBucketsMs),
	}
}

// ForgetScenario drops a deleted scenario's attribution, so by_scenario
// and the whatif_scenario_* series name only live workspaces.
func (m *Metrics) ForgetScenario(id string) {
	m.mu.Lock()
	delete(m.byScenario, id)
	m.mu.Unlock()
}

// MetricsSnapshot is the JSON shape served at /metrics, and each of its
// fields that carries a prom or hist tag — in place, or in a struct it
// nests — is one metric's declaration: the only place its names, type
// and help are written. WriteProm, the history sampler and whatif -top
// walk the declarations in field order:
//
//	json   the /metrics key ("-": not in the body)
//	prom   "family,type": the Prometheus family and its type, counter,
//	       gauge or histogram (a LatencySnapshot's buckets)
//	help   the family's HELP line
//	label  on a map: the label its keys go under, one sample per key; a
//	       map of structs exposes each prom-tagged element field
//	hist   "key[=Member],...": the /metrics/history keys; on a
//	       histogram, Member names the summary field the key reads
//	top    "row[,spark]": the whatif -top row that shows the hist keys,
//	       and whether each is plotted
//
// A history sample holds counters as interval deltas, histograms as the
// interval's summary and every other field at its level (since).
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds" prom:"whatif_uptime_seconds,gauge" help:"Seconds since the server started."`
	// QPS is queries served per second: over the uptime here, over the
	// interval in a history sample.
	QPS           float64 `json:"-" hist:"qps" top:"queries,spark"`
	QueriesServed int64   `json:"queries_served" prom:"whatif_queries_served_total,counter" help:"Queries answered successfully, including cache hits." hist:"queries" top:"queries"`
	QueryErrors   int64   `json:"query_errors" prom:"whatif_query_errors_total,counter" help:"Queries that failed to parse or evaluate." hist:"errors" top:"queries"`
	Overloaded    int64   `json:"overloaded" prom:"whatif_overloaded_total,counter" help:"Admissions rejected because the executor queue was full."`
	Canceled      int64   `json:"canceled" prom:"whatif_canceled_total,counter" help:"Queries abandoned by client cancellation."`
	TimedOut      int64   `json:"timed_out" prom:"whatif_timed_out_total,counter" help:"Queries abandoned at their deadline."`
	CacheHits     int64   `json:"cache_hits" prom:"whatif_cache_hits_total,counter" help:"Result-cache hits." hist:"cache_hits" top:"cache"`
	CacheMisses   int64   `json:"cache_misses" prom:"whatif_cache_misses_total,counter" help:"Result-cache misses." hist:"cache_misses" top:"cache"`
	// CacheHitRatio is hits over lookups: 0 without a lookup here, -1 in
	// a history sample of an interval without one.
	CacheHitRatio float64 `json:"cache_hit_ratio" hist:"cache_hit_ratio" top:"cache,spark"`
	CacheBytes    int     `json:"cache_bytes" prom:"whatif_cache_bytes,gauge" help:"Bytes held by the result cache." hist:"cache_bytes" top:"cache"`
	// CacheLimitBytes is what the result cache may hold now: it grows
	// from a small start toward Config.CacheBytes as reuse is observed.
	CacheLimitBytes int   `json:"cache_limit_bytes" prom:"whatif_cache_limit_bytes,gauge" help:"Bytes the result cache may hold now; grows with observed reuse, up to the configured budget." hist:"cache_limit_bytes" top:"cache"`
	QueueDepth      int   `json:"queue_depth" prom:"whatif_queue_depth,gauge" help:"Queries waiting in the executor queue." hist:"queue_depth" top:"queue"`
	SlowQueries     int64 `json:"slow_queries" prom:"whatif_slow_queries_total,counter" help:"Queries recorded in the slow-query log." hist:"slow_queries" top:"queries"`
	// ScanAmplification is CellsScanned over CellsReturned (0 until
	// something was returned; -1 in a history sample of such an
	// interval). A warming cache drives it toward zero: hits return
	// cells without scanning.
	CellsScanned      int64   `json:"cells_scanned" prom:"whatif_cells_scanned_total,counter" help:"Source cells visited by chunk scans." hist:"cells_scanned" top:"scan"`
	CellsReturned     int64   `json:"cells_returned" prom:"whatif_cells_returned_total,counter" help:"Result-grid cells returned to clients." hist:"cells_returned" top:"scan"`
	ScanAmplification float64 `json:"scan_amplification" hist:"scan_amplification" top:"scan,spark"`
	PlanMemoHits      int64   `json:"plan_memo_hits" prom:"whatif_plan_memo_hits_total,counter" help:"Perspective plans that copied Φ's relocation rows from the binding's memo." hist:"plan_memo_hits" top:"plan"`
	PlanMemoMisses    int64   `json:"plan_memo_misses" prom:"whatif_plan_memo_misses_total,counter" help:"Perspective plans that evaluated Φ." hist:"plan_memo_misses" top:"plan"`
	// WritebackPending counts segment write-backs queued or in flight;
	// always 0 without a data directory.
	WritebackPending int64 `json:"writeback_pending" prom:"whatif_writeback_pending,gauge" help:"Segment write-backs queued or in flight." hist:"writeback_pending" top:"queue"`
	// Pool aggregates buffer-pool state over the catalog's current
	// cube versions.
	Pool        PoolSnapshot    `json:"pool"`
	SegmentRead LatencySnapshot `json:"segment_read_ms" prom:"whatif_segment_read_ms,histogram" help:"Durable segment fault-in duration in milliseconds." hist:"segment_read_ms=MeanMs" top:"queue"`
	Latency     LatencySnapshot `json:"latency" prom:"whatif_query_latency_ms,histogram" help:"End-to-end query latency in milliseconds." hist:"p50_ms=P50Ms,p95_ms=P95Ms,p99_ms=P99Ms" top:"latency,spark"`
	ChunksRead  LatencySnapshot `json:"-" prom:"whatif_query_chunks_read,histogram" help:"Chunks read per engine-backed query."`
	// Stages holds the mean per-stage times, StageTotalMs their sums.
	Stages       StageSnapshot      `json:"stage_ms"`
	StageTotalMs map[string]float64 `json:"-" prom:"whatif_stage_ms_total,counter" label:"stage" help:"Cumulative pipeline stage time in milliseconds."`
	BySemantics  map[string]int64   `json:"by_semantics" prom:"whatif_queries_by_semantics_total,counter" label:"semantics" help:"Queries by perspective semantics."`
	// ByScenario attributes scenario-path queries per scenario id;
	// absent when no scenario query has been served.
	ByScenario map[string]ScenarioSnapshot `json:"by_scenario,omitempty" label:"scenario"`
	// RetainedTraces/RetainedTraceBytes are the trace ring's occupancy.
	RetainedTraces     int `json:"-" hist:"retained_traces" top:"traces"`
	RetainedTraceBytes int `json:"-" hist:"retained_trace_bytes" top:"traces"`

	at time.Time // when the snapshot was taken
}

// PoolSnapshot is the buffer-pool aggregate in MetricsSnapshot:
// chunk.SpillStats summed across cubes, with JSON names.
type PoolSnapshot struct {
	ResidentChunks int `json:"resident_chunks" prom:"whatif_pool_resident_chunks,gauge" help:"Chunks resident in the buffer pools." hist:"pool_resident_chunks" top:"pool"`
	SpilledChunks  int `json:"spilled_chunks" prom:"whatif_pool_spilled_chunks,gauge" help:"Chunks held only by the buffer pools' backing tiers." hist:"pool_spilled_chunks" top:"pool"`
	Faults         int `json:"faults" prom:"whatif_pool_faults_total,counter" help:"Chunk fault-ins from the backing tiers." hist:"pool_faults" top:"pool"`
	Evictions      int `json:"evictions" prom:"whatif_pool_evictions_total,counter" help:"Chunks evicted from the buffer pools." hist:"pool_evictions" top:"pool"`
	Pinned         int `json:"pinned" prom:"whatif_pool_pinned,gauge" help:"Chunk ids currently pinned in the buffer pools." hist:"pool_pinned" top:"pool"`
	ResidentBytes  int `json:"resident_bytes" prom:"whatif_pool_resident_bytes,gauge" help:"Bytes of chunk data resident in the buffer pools." hist:"pool_resident_bytes" top:"pool"`
	// FramesRecycled counts evicted dense arrays handed back for reuse:
	// Faults − FramesRecycled approximates the fresh dense arrays the
	// faults allocated.
	FramesRecycled int `json:"frames_recycled" prom:"whatif_pool_frames_recycled_total,counter" help:"Evicted dense chunk arrays handed back for the next fault to decode into." hist:"pool_frames_recycled" top:"pool"`
}

// StageSnapshot reports the mean per-stage pipeline time, in
// milliseconds, over the engine-run queries observed so far.
type StageSnapshot struct {
	Count     int64   `json:"count" prom:"whatif_stage_queries_total,counter" help:"Engine-backed queries contributing to stage totals."`
	PlanMs    float64 `json:"plan_ms"`
	ScanMs    float64 `json:"scan_ms"`
	ProjectMs float64 `json:"project_ms"`
}

// ScenarioSnapshot reports one scenario's served queries and mean
// latency at snapshot time.
type ScenarioSnapshot struct {
	Queries       int64   `json:"queries" prom:"whatif_scenario_queries_total,counter" help:"Queries served per scenario workspace."`
	LatencySumMs  float64 `json:"latency_sum_ms" prom:"whatif_scenario_latency_ms_total,counter" help:"Cumulative query latency per scenario workspace in milliseconds."`
	LatencyMeanMs float64 `json:"latency_mean_ms"`
}

// fields calls fn for each exported field of struct type t in
// declaration order, with its index path under index; a nested struct
// stands for its own fields, unless a prom tag declares it a histogram.
func fields(t reflect.Type, index []int, fn func(f reflect.StructField, index []int)) {
	for i := 0; i < t.NumField(); i++ {
		switch f, idx := t.Field(i), append(slices.Clip(index), i); {
		case !f.IsExported():
		case f.Type.Kind() == reflect.Struct && f.Tag.Get("prom") == "":
			fields(f.Type, idx, fn)
		default:
			fn(f, idx)
		}
	}
}

// history calls fn for each /metrics/history key s declares, in order,
// with the declaring field and the value the key reads: the field
// itself, or the member of a histogram summary its hist tag names.
func (s *MetricsSnapshot) history(fn func(f reflect.StructField, key string, v float64)) {
	sv := reflect.ValueOf(s).Elem()
	fields(sv.Type(), nil, func(f reflect.StructField, index []int) {
		for _, k := range strings.FieldsFunc(f.Tag.Get("hist"), func(r rune) bool { return r == ',' }) {
			key, member, _ := strings.Cut(k, "=")
			v := sv.FieldByIndex(index)
			if v.Kind() == reflect.Struct {
				v = v.FieldByName(member)
			}
			fn(f, key, num(v))
		}
	})
}

// historyKeys are the declared history keys in order, shared by every
// sample the collector takes.
var historyKeys = func() (keys []string) {
	new(MetricsSnapshot).history(func(_ reflect.StructField, key string, _ float64) { keys = append(keys, key) })
	return keys
}()

// num reads a declared scalar as a float.
func num(v reflect.Value) float64 {
	if v.CanInt() {
		return float64(v.Int())
	}
	return v.Float()
}

// Snapshot captures the current metric values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	now := time.Now()
	s := MetricsSnapshot{
		UptimeSeconds: now.Sub(m.start).Seconds(),
		SegmentRead:   m.segmentRead.read().summary(),
		Latency:       m.latency.read().summary(),
		ChunksRead:    m.chunksRead.read().summary(),
		BySemantics:   make(map[string]int64),
		at:            now,
	}
	// Each exported counter loads into the declaration of its name.
	mv, sv := reflect.ValueOf(m).Elem(), reflect.ValueOf(&s).Elem()
	for i := 0; i < mv.NumField(); i++ {
		if f := mv.Type().Field(i); f.IsExported() {
			sv.FieldByName(f.Name).SetInt(mv.Field(i).Addr().Interface().(*atomic.Int64).Load())
		}
	}
	if n := m.stageCount.Load(); n > 0 {
		plan, scan, project := float64(m.stagePlanUs.Load())/1000, float64(m.stageScanUs.Load())/1000, float64(m.stageProjectUs.Load())/1000
		s.StageTotalMs = map[string]float64{"plan": plan, "scan": scan, "project": project}
		s.Stages = StageSnapshot{Count: n, PlanMs: plan / float64(n), ScanMs: scan / float64(n), ProjectMs: project / float64(n)}
	}
	for i := range m.bySem {
		if v := m.bySem[i].Load(); v > 0 {
			s.BySemantics[queryClasses[i]] = v
		}
	}
	m.mu.Lock()
	if len(m.byScenario) > 0 {
		s.ByScenario = make(map[string]ScenarioSnapshot, len(m.byScenario))
		for id, st := range m.byScenario {
			sum := float64(st.latencyUs) / 1000
			s.ByScenario[id] = ScenarioSnapshot{Queries: st.count, LatencySumMs: sum, LatencyMeanMs: sum / float64(st.count)}
		}
	}
	m.mu.Unlock()
	if m.gauges != nil {
		m.gauges(&s)
	}
	s.derive(s.UptimeSeconds, 0)
	return s
}

// derive computes the ratios over the snapshot's counters, which span
// seconds; none is a ratio's value when its denominator is zero.
func (s *MetricsSnapshot) derive(seconds, none float64) {
	s.CacheHitRatio, s.ScanAmplification = none, none
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRatio = float64(s.CacheHits) / float64(lookups)
	}
	if s.CellsReturned > 0 {
		s.ScanAmplification = float64(s.CellsScanned) / float64(s.CellsReturned)
	}
	if seconds > 0 {
		s.QPS = float64(s.QueriesServed) / seconds
	}
}

// since is the interval from prev to s: each declared counter becomes
// its delta and each histogram the summary of the observations between
// the two readings, while gauges keep s's level; the ratios are then
// derived over the interval, -1 when it saw nothing to divide.
func (s MetricsSnapshot) since(prev MetricsSnapshot) MetricsSnapshot {
	cv, pv := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&prev).Elem()
	fields(cv.Type(), nil, func(f reflect.StructField, index []int) {
		switch _, kind, _ := strings.Cut(f.Tag.Get("prom"), ","); kind {
		case "counter":
			if c := cv.FieldByIndex(index); c.CanInt() {
				c.SetInt(c.Int() - pv.FieldByIndex(index).Int())
			}
		case "histogram":
			h := cv.FieldByIndex(index).Addr().Interface().(*LatencySnapshot)
			*h = h.reading.minus(pv.FieldByIndex(index).Interface().(LatencySnapshot).reading).summary()
		}
	})
	s.derive(s.at.Sub(prev.at).Seconds(), -1)
	return s
}

// TopRow is one row of the whatif -top view: its name, the history
// keys it shows in declaration order, and those of them it plots.
type TopRow struct {
	Name        string
	Keys, Spark []string
}

// TopRows lists the rows the declarations' top tags name, each where
// its first declaration stands.
func TopRows() (rows []TopRow) {
	new(MetricsSnapshot).history(func(f reflect.StructField, key string, _ float64) {
		row, spark, _ := strings.Cut(f.Tag.Get("top"), ",")
		if row == "" {
			return
		}
		i := slices.IndexFunc(rows, func(r TopRow) bool { return r.Name == row })
		if i < 0 {
			i, rows = len(rows), append(rows, TopRow{Name: row})
		}
		rows[i].Keys = append(rows[i].Keys, key)
		if spark == "spark" {
			rows[i].Spark = append(rows[i].Spark, key)
		}
	})
	return rows
}
