// The per-query half of the serving metrics: the atomic counters and
// histograms the query path adds to, and the one feed a finished query
// goes through. Everything here runs per query and allocates nothing;
// the declarations and their renderings (MetricsSnapshot's tags,
// Snapshot, WriteProm, the history sampler) live in metrics.go, prom.go
// and observe.go, and read these fields at scrape and tick time only.
//
//lint:hotpath
package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	//lint:hotpathok core.Stats is read field by field here; core formats only plan text and errors, never reached from this file
	"whatifolap/internal/core"
	//lint:hotpathok only the grid's row lengths are read; result formats labels when a grid is built, not here
	"whatifolap/internal/result"
	"whatifolap/internal/trace"
)

// Metrics is the serving layer's observability state: expvar-style
// counters, latency and trace-derived histograms, and gauges sampled at
// snapshot time. All update paths are atomic (the per-scenario map
// takes a mutex); one Metrics is shared by the executor, cache and HTTP
// handlers. Each exported counter is loaded by Snapshot into the
// MetricsSnapshot field of the same name, whose tags declare it.
type Metrics struct {
	start time.Time

	QueriesServed  atomic.Int64 // queries answered successfully (incl. cache hits)
	QueryErrors    atomic.Int64 // parse/eval failures
	Overloaded     atomic.Int64 // admissions rejected by the full queue
	Canceled       atomic.Int64 // queries abandoned by client cancellation
	TimedOut       atomic.Int64 // queries abandoned by deadline
	CacheHits      atomic.Int64
	CacheMisses    atomic.Int64
	SlowQueries    atomic.Int64 // queries recorded in the slow-query log
	CellsScanned   atomic.Int64 // source cells visited by chunk scans
	CellsReturned  atomic.Int64 // result-grid cells returned (cache hits scan nothing)
	PlanMemoHits   atomic.Int64 // perspective plans that copied Φ's rows from the memo
	PlanMemoMisses atomic.Int64 // perspective plans that evaluated Φ

	latency, chunksRead, segmentRead *histogram

	// Per-stage pipeline time accumulators (microseconds) plus the
	// count of engine-run queries they sum over.
	stagePlanUs, stageScanUs, stageProjectUs, stageCount atomic.Int64

	// bySem counts queries per classify class (queryClasses names them).
	bySem [nQueryClasses]atomic.Int64

	mu sync.Mutex
	// byScenario attributes scenario-path queries: count and cumulative
	// latency per scenario id. A counter pair, not a labeled histogram —
	// scenario ids are unbounded, so per-id buckets would blow up the
	// exposition cardinality.
	byScenario map[string]*scenarioStat

	// gauges fills a snapshot's levels from the components that own
	// them (the server's queue, cache, pools and trace ring); nil
	// leaves them zero.
	gauges func(*MetricsSnapshot)
}

// scenarioStat accumulates one scenario's query attribution.
type scenarioStat struct {
	count     int64
	latencyUs int64
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

// observe records one value (milliseconds for duration histograms).
func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sumMicro.Add(int64(v * 1e6))
}

// ObserveLatency records one successful query execution time.
func (m *Metrics) ObserveLatency(d time.Duration) {
	m.latency.observe(float64(d) / float64(time.Millisecond))
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

// observeQuery is an executed query's one feed: its span tree, its
// engine stats and the grid it returns. Only the engine records a
// "plan" span, and before any fault span, so a full span buffer cannot
// drop it: a query without one (the algebra path) has no stage time to
// add. A perspective plan's span carries phi_cached — 1 when Φ's rows
// came from the binding's memo, 0 when Φ was evaluated — and a changes
// plan, which evaluates no Φ, none. "scan" spans give the query's chunk
// reads, each "fault" span (a segment read) its fault-in duration. Call
// after the traced execution has returned (snapshotting must not race
// recording).
func (m *Metrics) observeQuery(spans []trace.Span, stats core.Stats, grid *result.Grid) {
	var chunks int64
	planned, scanned := false, false
	for i := range spans {
		sp := &spans[i]
		switch sp.Name {
		case "plan":
			planned = true
			if cached, phi := sp.Attr("phi_cached"); phi {
				if cached != 0 {
					m.PlanMemoHits.Add(1)
				} else {
					m.PlanMemoMisses.Add(1)
				}
			}
		case "scan":
			scanned = true
			n, _ := sp.Attr("chunks_read")
			chunks += n
		case "fault":
			m.segmentRead.observe(sp.Ms())
		}
	}
	if planned {
		m.stagePlanUs.Add(int64(stats.PlanMs * 1000))
		m.stageScanUs.Add(int64(stats.ScanMs * 1000))
		m.stageProjectUs.Add(int64(stats.ProjectMs * 1000))
		m.stageCount.Add(1)
	}
	if scanned {
		m.chunksRead.observe(float64(chunks))
	}
	m.CellsScanned.Add(int64(stats.CellsScanned))
	if grid != nil {
		var cells int64
		for _, row := range grid.Values {
			cells += int64(len(row))
		}
		m.CellsReturned.Add(cells)
	}
}
