// Package obs is the serving layer's continuous-observability toolkit:
// the mechanisms behind /metrics/history, /debug/trace/{id} and
// /debug/events.
//
// PR 4's primitives (span recorder, prom exposition, slowlog) are all
// point-in-time: they answer "what is the engine doing now", not "how
// did the cache hit ratio move while the analyst iterated on scenario
// edits". This package adds the time axis:
//
//   - History — a fixed-capacity ring of interval Samples, each the
//     delta of the serving counters over one collector tick (QPS,
//     interval latency quantiles, cache hit ratio, scan amplification,
//     buffer-pool pressure, write-back backlog).
//   - Collector — the fixed-cadence ticker driving a sample closure;
//     the closure itself lives in internal/server, which owns the
//     counters being differenced.
//   - TraceRing — byte-budgeted tail-sampled trace retention: full
//     span trees for slow, errored and 1-in-N sampled queries, kept
//     addressable by trace ID until evicted by newer retentions.
//   - EventLog — a ring (plus optional JSON-lines sink) of structured
//     component lifecycle events, replacing ad-hoc daemon prints.
//
// The policy questions — what to sample, which counters to difference,
// when a query counts as slow — stay with the callers; this package
// only provides the retention and cadence machinery, so it can be
// tested and benchmarked without a server.
package obs

import (
	"sync"
)

// Sample is one interval observation of the serving layer, produced by
// the collector at a fixed cadence. Counter-like fields are deltas over
// the interval, gauge-like fields are the value at sample time. Ratio
// fields use -1 for "no observations this interval" so a quiet server
// is distinguishable from a 0% one.
type Sample struct {
	// UnixMs is the sample timestamp; IntervalMs the wall time since
	// the previous sample (what the deltas are over).
	UnixMs     int64   `json:"unix_ms"`
	IntervalMs float64 `json:"interval_ms"`

	// Query flow over the interval.
	Queries     int64   `json:"queries"`
	Errors      int64   `json:"errors"`
	SlowQueries int64   `json:"slow_queries"`
	QPS         float64 `json:"qps"`

	// Result cache over the interval. CacheHitRatio is -1 when the
	// interval saw no lookups.
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`

	// Interval latency quantiles from the latency histogram's bucket
	// deltas; all zero when no query completed in the interval.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`

	// Scan amplification: source cells visited per result cell
	// returned over the interval (-1 when nothing was returned).
	// Cache hits return cells without scanning, so a warming cache
	// drives this toward zero — the trend ROADMAP item 2 watches.
	CellsScanned      int64   `json:"cells_scanned"`
	CellsReturned     int64   `json:"cells_returned"`
	ScanAmplification float64 `json:"scan_amplification"`

	// SegmentReadMs is the mean durable-tier fault-in latency over the
	// interval (0 when no segment read happened).
	SegmentReadMs float64 `json:"segment_read_ms"`

	// Serving gauges at sample time.
	QueueDepth       int   `json:"queue_depth"`
	CacheBytes       int   `json:"cache_bytes"`
	CacheLimitBytes  int   `json:"cache_limit_bytes"`
	WritebackPending int64 `json:"writeback_pending"`

	// Buffer-pool state: gauges at sample time plus interval deltas of
	// the pool's monotone counters.
	PoolResidentBytes  int   `json:"pool_resident_bytes"`
	PoolResidentChunks int   `json:"pool_resident_chunks"`
	PoolSpilledChunks  int   `json:"pool_spilled_chunks"`
	PoolPinned         int   `json:"pool_pinned"`
	PoolEvictions      int64 `json:"pool_evictions"`
	PoolFaults         int64 `json:"pool_faults"`

	// Retained-trace ring occupancy at sample time.
	RetainedTraces     int `json:"retained_traces"`
	RetainedTraceBytes int `json:"retained_trace_bytes"`
}

// DefaultHistorySize is the sample capacity NewHistory(0) allocates:
// ten minutes of history at the default one-second cadence.
const DefaultHistorySize = 600

// History is a fixed-capacity ring of Samples: writes overwrite the
// oldest once full, reads return an oldest-first copy. One mutex is
// plenty — the writer is a single collector goroutine ticking at
// human-scale cadence, readers are /metrics/history requests.
type History struct {
	mu    sync.Mutex
	buf   []Sample
	next  int   // ring write position
	total int64 // samples ever added (> len(buf) once wrapped)
}

// NewHistory creates a history ring holding up to capacity samples
// (DefaultHistorySize when capacity <= 0).
func NewHistory(capacity int) *History {
	if capacity <= 0 {
		capacity = DefaultHistorySize
	}
	return &History{buf: make([]Sample, 0, capacity)}
}

// Add appends one sample, evicting the oldest when full. No-op on nil.
func (h *History) Add(s Sample) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if len(h.buf) < cap(h.buf) {
		h.buf = append(h.buf, s)
	} else {
		h.buf[h.next] = s
	}
	h.next = (h.next + 1) % cap(h.buf)
	h.total++
	h.mu.Unlock()
}

// Snapshot returns the retained samples, oldest first. Nil-safe.
func (h *History) Snapshot() []Sample {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Sample, 0, len(h.buf))
	if len(h.buf) < cap(h.buf) {
		// Not wrapped yet: the buffer is already oldest-first.
		return append(out, h.buf...)
	}
	for i := 0; i < len(h.buf); i++ {
		out = append(out, h.buf[(h.next+i)%len(h.buf)])
	}
	return out
}

// Last returns the most recent sample, if any. Nil-safe.
func (h *History) Last() (Sample, bool) {
	if h == nil {
		return Sample{}, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.buf) == 0 {
		return Sample{}, false
	}
	return h.buf[(h.next-1+len(h.buf))%len(h.buf)], true
}

// Cap returns the ring capacity. Nil-safe.
func (h *History) Cap() int {
	if h == nil {
		return 0
	}
	return cap(h.buf)
}

// Total returns the number of samples ever added — minus the retained
// count, how many the ring has evicted. Nil-safe.
func (h *History) Total() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}
