package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whatifolap/internal/chunk"
	"whatifolap/internal/core"
	"whatifolap/internal/trace"
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

// histogram is a fixed-bucket histogram with atomic counters, in the
// style of expvar: cheap to update from many goroutines, read by
// snapshotting. Buckets are cumulative only at exposition time; counts
// here are per-bucket, and the observation count is their total. The
// sum is kept in micro-units so it stays a single atomic integer.
type histogram struct {
	bounds   []float64
	counts   []atomic.Int64 // len(bounds)+1; the last bucket is +Inf
	sumMicro atomic.Int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// observe records one value (milliseconds for duration histograms).
func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sumMicro.Add(int64(v * 1e6))
}

// observeDuration records one duration in milliseconds.
func (h *histogram) observeDuration(d time.Duration) {
	h.observe(float64(d) / float64(time.Millisecond))
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
// holds no observation.
func (r histReading) summary() LatencySnapshot {
	n := r.count()
	if n == 0 {
		return LatencySnapshot{}
	}
	return LatencySnapshot{
		Count:  n,
		MeanMs: float64(r.sumMicro) / 1e6 / float64(n),
		P50Ms:  r.quantile(0.50),
		P95Ms:  r.quantile(0.95),
		P99Ms:  r.quantile(0.99),
	}
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

// LatencySnapshot summarizes the latency histogram.
type LatencySnapshot struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// Metrics is the serving layer's observability surface: expvar-style
// counters, latency and trace-derived histograms, and gauges sampled at
// snapshot time. All update paths are atomic; one Metrics is shared by
// the executor, cache and HTTP handlers. Exposed as JSON (Snapshot) and
// Prometheus text format (WriteProm).
type Metrics struct {
	start time.Time

	QueriesServed atomic.Int64 // queries answered successfully (incl. cache hits)
	QueryErrors   atomic.Int64 // parse/eval failures
	Overloaded    atomic.Int64 // admissions rejected by the full queue
	Canceled      atomic.Int64 // queries abandoned by client cancellation
	TimedOut      atomic.Int64 // queries abandoned by deadline
	CacheHits     atomic.Int64
	CacheMisses   atomic.Int64
	SlowQueries   atomic.Int64 // queries recorded in the slow-query log

	// CellsScanned / CellsReturned feed the scan-amplification ratio:
	// source cells visited by chunk scans vs. result-grid cells
	// returned to clients (cache hits return without scanning).
	CellsScanned  atomic.Int64
	CellsReturned atomic.Int64

	latency *histogram

	// Trace-derived histograms, fed by ObserveTrace from each query's
	// span tree: chunk reads per query and segment fault-in durations.
	chunksRead    *histogram
	segmentReadMs *histogram

	// Per-stage pipeline time accumulators (microseconds) plus the
	// sample count, fed by ObserveStages after engine-backed queries.
	stagePlanUs    atomic.Int64
	stageScanUs    atomic.Int64
	stageProjectUs atomic.Int64
	stageCount     atomic.Int64

	mu    sync.Mutex
	bySem map[string]int64
	// byScenario attributes scenario-path queries: count and cumulative
	// latency per scenario id. A counter pair, not a labeled histogram —
	// scenario ids are unbounded, so per-id buckets would blow up the
	// exposition cardinality.
	byScenario map[string]*scenarioStat

	// queueDepth, cacheBytes, cacheLimit, writebackPending and poolStats
	// are sampled at snapshot time. writebackPending is nil unless a
	// persister is attached (whatifd -data-dir); poolStats sums the
	// buffer pools of the catalog's current cube versions.
	queueDepth       func() int
	cacheBytes       func() int
	cacheLimit       func() int
	writebackPending func() int64
	poolStats        func() chunk.SpillStats
}

// scenarioStat accumulates one scenario's query attribution.
type scenarioStat struct {
	count     int64
	latencyUs int64
}

// ScenarioSnapshot reports one scenario's served queries and mean
// latency at snapshot time.
type ScenarioSnapshot struct {
	Queries       int64   `json:"queries"`
	LatencySumMs  float64 `json:"latency_sum_ms"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`
}

// NewMetrics creates an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		start:         time.Now(),
		bySem:         make(map[string]int64),
		byScenario:    make(map[string]*scenarioStat),
		latency:       newHistogram(latencyBucketsMs),
		chunksRead:    newHistogram(chunksReadBuckets),
		segmentReadMs: newHistogram(spanBucketsMs),
	}
}

// ObserveLatency records one successful query execution time.
func (m *Metrics) ObserveLatency(d time.Duration) { m.latency.observeDuration(d) }

// ObserveCells records one query's scan amplification inputs: source
// cells the engine visited and result cells returned to the client.
func (m *Metrics) ObserveCells(scanned, returned int64) {
	m.CellsScanned.Add(scanned)
	m.CellsReturned.Add(returned)
}

// ObserveStages records one query's staged-pipeline timings
// (plan / scan / project) from the engine stats.
func (m *Metrics) ObserveStages(s core.Stats) {
	m.stagePlanUs.Add(int64(s.PlanMs * 1000))
	m.stageScanUs.Add(int64(s.ScanMs * 1000))
	m.stageProjectUs.Add(int64(s.ProjectMs * 1000))
	m.stageCount.Add(1)
}

// ObserveTrace folds one finished query's span tree into the
// trace-derived histograms: "scan" spans contribute the query's chunk
// reads, each "fault" span (a segment read) its fault-in duration. Call
// after the traced execution has returned (snapshotting must not race
// recording).
func (m *Metrics) ObserveTrace(spans []trace.Span) {
	var chunks int64
	sawScan := false
	for _, s := range spans {
		switch s.Name {
		case "scan":
			sawScan = true
			if v, ok := s.Attr("chunks_read"); ok {
				chunks += v
			}
		case "fault":
			m.segmentReadMs.observe(s.Ms())
		}
	}
	if sawScan {
		m.chunksRead.observe(float64(chunks))
	}
}

// CountSemantics bumps the per-semantics query breakdown.
func (m *Metrics) CountSemantics(sem string) {
	m.mu.Lock()
	m.bySem[sem]++
	m.mu.Unlock()
}

// ObserveScenario attributes one served scenario-path query to its
// scenario id.
func (m *Metrics) ObserveScenario(id string, d time.Duration) {
	m.mu.Lock()
	st := m.byScenario[id]
	if st == nil {
		st = &scenarioStat{}
		m.byScenario[id] = st
	}
	st.count++
	st.latencyUs += int64(d / time.Microsecond)
	m.mu.Unlock()
}

// ForgetScenario drops a deleted scenario's attribution, so by_scenario
// and the whatif_scenario_* series name only live workspaces.
func (m *Metrics) ForgetScenario(id string) {
	m.mu.Lock()
	delete(m.byScenario, id)
	m.mu.Unlock()
}

// StageSnapshot reports the mean per-stage pipeline time, in
// milliseconds, over the queries observed so far.
type StageSnapshot struct {
	Count     int64   `json:"count"`
	PlanMs    float64 `json:"plan_ms"`
	ScanMs    float64 `json:"scan_ms"`
	ProjectMs float64 `json:"project_ms"`
}

// MetricsSnapshot is the JSON shape served at /metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueriesServed int64   `json:"queries_served"`
	QueryErrors   int64   `json:"query_errors"`
	Overloaded    int64   `json:"overloaded"`
	Canceled      int64   `json:"canceled"`
	TimedOut      int64   `json:"timed_out"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	CacheBytes    int     `json:"cache_bytes"`
	// CacheLimitBytes is what the result cache may hold now: it grows
	// from a small start toward Config.CacheBytes as reuse is observed.
	CacheLimitBytes int   `json:"cache_limit_bytes"`
	QueueDepth      int   `json:"queue_depth"`
	SlowQueries     int64 `json:"slow_queries"`
	// CellsScanned/CellsReturned are lifetime totals;
	// ScanAmplification their ratio (0 until something was returned).
	CellsScanned      int64   `json:"cells_scanned"`
	CellsReturned     int64   `json:"cells_returned"`
	ScanAmplification float64 `json:"scan_amplification"`
	// WritebackPending counts segment write-backs queued or in flight;
	// always 0 without a data directory.
	WritebackPending int64 `json:"writeback_pending"`
	// Pool aggregates buffer-pool state over the catalog's current
	// cube versions.
	Pool PoolSnapshot `json:"pool"`
	// SegmentRead summarizes durable segment fault-in latency.
	SegmentRead LatencySnapshot  `json:"segment_read_ms"`
	Latency     LatencySnapshot  `json:"latency"`
	Stages      StageSnapshot    `json:"stage_ms"`
	BySemantics map[string]int64 `json:"by_semantics"`
	// ByScenario attributes scenario-path queries per scenario id;
	// absent when no scenario query has been served.
	ByScenario map[string]ScenarioSnapshot `json:"by_scenario,omitempty"`

	// at is when the snapshot was taken; latency and segmentRead are the
	// readings Latency and SegmentRead summarize. The history collector
	// differences two snapshots through them.
	at                   time.Time
	latency, segmentRead histReading
}

// PoolSnapshot is the buffer-pool aggregate in MetricsSnapshot:
// chunk.SpillStats summed across cubes, with JSON names.
type PoolSnapshot struct {
	ResidentChunks int `json:"resident_chunks"`
	SpilledChunks  int `json:"spilled_chunks"`
	Faults         int `json:"faults"`
	Evictions      int `json:"evictions"`
	Pinned         int `json:"pinned"`
	ResidentBytes  int `json:"resident_bytes"`
	// FramesRecycled counts evicted dense arrays handed back for reuse:
	// Faults − FramesRecycled approximates the fresh dense arrays the
	// faults allocated.
	FramesRecycled int `json:"frames_recycled"`
}

// Snapshot captures the current metric values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	now := time.Now()
	s := MetricsSnapshot{
		UptimeSeconds: now.Sub(m.start).Seconds(),
		QueriesServed: m.QueriesServed.Load(),
		QueryErrors:   m.QueryErrors.Load(),
		Overloaded:    m.Overloaded.Load(),
		Canceled:      m.Canceled.Load(),
		TimedOut:      m.TimedOut.Load(),
		CacheHits:     m.CacheHits.Load(),
		CacheMisses:   m.CacheMisses.Load(),
		SlowQueries:   m.SlowQueries.Load(),
		CellsScanned:  m.CellsScanned.Load(),
		CellsReturned: m.CellsReturned.Load(),
		BySemantics:   make(map[string]int64),
		at:            now,
		latency:       m.latency.read(),
		segmentRead:   m.segmentReadMs.read(),
	}
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRatio = float64(s.CacheHits) / float64(lookups)
	}
	if s.CellsReturned > 0 {
		s.ScanAmplification = float64(s.CellsScanned) / float64(s.CellsReturned)
	}
	s.Latency = s.latency.summary()
	s.SegmentRead = s.segmentRead.summary()
	if n := m.stageCount.Load(); n > 0 {
		s.Stages = StageSnapshot{
			Count:     n,
			PlanMs:    float64(m.stagePlanUs.Load()) / 1000 / float64(n),
			ScanMs:    float64(m.stageScanUs.Load()) / 1000 / float64(n),
			ProjectMs: float64(m.stageProjectUs.Load()) / 1000 / float64(n),
		}
	}
	m.mu.Lock()
	for k, v := range m.bySem {
		s.BySemantics[k] = v
	}
	if len(m.byScenario) > 0 {
		s.ByScenario = make(map[string]ScenarioSnapshot, len(m.byScenario))
		for id, st := range m.byScenario {
			snap := ScenarioSnapshot{
				Queries:      st.count,
				LatencySumMs: float64(st.latencyUs) / 1000,
			}
			if st.count > 0 {
				snap.LatencyMeanMs = snap.LatencySumMs / float64(st.count)
			}
			s.ByScenario[id] = snap
		}
	}
	m.mu.Unlock()
	if m.queueDepth != nil {
		s.QueueDepth = m.queueDepth()
	}
	if m.cacheBytes != nil {
		s.CacheBytes = m.cacheBytes()
		s.CacheLimitBytes = m.cacheLimit()
	}
	if m.writebackPending != nil {
		s.WritebackPending = m.writebackPending()
	}
	if m.poolStats != nil {
		ps := m.poolStats()
		s.Pool = PoolSnapshot{
			ResidentChunks: ps.Resident,
			SpilledChunks:  ps.Spilled,
			Faults:         ps.Faults,
			Evictions:      ps.Evictions,
			Pinned:         ps.Pinned,
			ResidentBytes:  ps.ResidentBytes,
			FramesRecycled: ps.Recycled,
		}
	}
	return s
}
