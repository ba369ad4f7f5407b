package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// promFloat formats a float the way Prometheus clients do: shortest
// representation that round-trips, no exponent for typical values.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writePromHistogram renders one histogram reading in text format
// 0.0.4: cumulative le-labelled buckets ending at +Inf, then _sum and
// _count (which equals the +Inf bucket: both come from one reading).
func writePromHistogram(w io.Writer, name, help string, r histReading) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum int64
	for i, b := range r.bounds {
		cum += r.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, promFloat(b), cum)
	}
	cum += r.counts[len(r.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(float64(r.sumMicro)/1e6))
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

func writePromCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s counter\n", name)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

func writePromGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s gauge\n", name)
	fmt.Fprintf(w, "%s %s\n", name, promFloat(v))
}

// WriteProm writes every metric in Prometheus text exposition format
// 0.0.4. The caller sets Content-Type; the body is self-contained and
// scrape-ready. Counters snapshot atomically per line (the same
// consistency /metrics JSON offers).
func (m *Metrics) WriteProm(w io.Writer) {
	s := m.Snapshot()

	writePromGauge(w, "whatif_uptime_seconds", "Seconds since the server started.", s.UptimeSeconds)
	writePromCounter(w, "whatif_queries_served_total", "Queries answered successfully, including cache hits.", s.QueriesServed)
	writePromCounter(w, "whatif_query_errors_total", "Queries that failed to parse or evaluate.", s.QueryErrors)
	writePromCounter(w, "whatif_overloaded_total", "Admissions rejected because the executor queue was full.", s.Overloaded)
	writePromCounter(w, "whatif_canceled_total", "Queries abandoned by client cancellation.", s.Canceled)
	writePromCounter(w, "whatif_timed_out_total", "Queries abandoned at their deadline.", s.TimedOut)
	writePromCounter(w, "whatif_cache_hits_total", "Result-cache hits.", s.CacheHits)
	writePromCounter(w, "whatif_cache_misses_total", "Result-cache misses.", s.CacheMisses)
	writePromCounter(w, "whatif_slow_queries_total", "Queries recorded in the slow-query log.", s.SlowQueries)
	writePromCounter(w, "whatif_cells_scanned_total", "Source cells visited by chunk scans.", s.CellsScanned)
	writePromCounter(w, "whatif_cells_returned_total", "Result-grid cells returned to clients.", s.CellsReturned)
	writePromGauge(w, "whatif_cache_bytes", "Bytes held by the result cache.", float64(s.CacheBytes))
	writePromGauge(w, "whatif_cache_limit_bytes", "Bytes the result cache may hold now; grows with observed reuse, up to the configured budget.", float64(s.CacheLimitBytes))
	writePromGauge(w, "whatif_queue_depth", "Queries waiting in the executor queue.", float64(s.QueueDepth))
	writePromGauge(w, "whatif_writeback_pending", "Segment write-backs queued or in flight.", float64(s.WritebackPending))
	writePromGauge(w, "whatif_pool_resident_bytes", "Bytes of chunk data resident in the buffer pools.", float64(s.Pool.ResidentBytes))
	writePromGauge(w, "whatif_pool_resident_chunks", "Chunks resident in the buffer pools.", float64(s.Pool.ResidentChunks))
	writePromGauge(w, "whatif_pool_pinned", "Chunk ids currently pinned in the buffer pools.", float64(s.Pool.Pinned))
	writePromCounter(w, "whatif_pool_evictions_total", "Chunks evicted from the buffer pools.", int64(s.Pool.Evictions))
	writePromCounter(w, "whatif_pool_faults_total", "Chunk fault-ins from the backing tiers.", int64(s.Pool.Faults))

	if len(s.BySemantics) > 0 {
		fmt.Fprintf(w, "# HELP whatif_queries_by_semantics_total Queries by perspective semantics.\n")
		fmt.Fprintf(w, "# TYPE whatif_queries_by_semantics_total counter\n")
		sems := make([]string, 0, len(s.BySemantics))
		for sem := range s.BySemantics {
			sems = append(sems, sem)
		}
		sort.Strings(sems)
		for _, sem := range sems {
			fmt.Fprintf(w, "whatif_queries_by_semantics_total{semantics=%q} %d\n", sem, s.BySemantics[sem])
		}
	}

	if len(s.ByScenario) > 0 {
		ids := make([]string, 0, len(s.ByScenario))
		for id := range s.ByScenario {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(w, "# HELP whatif_scenario_queries_total Queries served per scenario workspace.\n")
		fmt.Fprintf(w, "# TYPE whatif_scenario_queries_total counter\n")
		for _, id := range ids {
			fmt.Fprintf(w, "whatif_scenario_queries_total{scenario=%q} %d\n", id, s.ByScenario[id].Queries)
		}
		fmt.Fprintf(w, "# HELP whatif_scenario_latency_ms_total Cumulative query latency per scenario workspace in milliseconds.\n")
		fmt.Fprintf(w, "# TYPE whatif_scenario_latency_ms_total counter\n")
		for _, id := range ids {
			fmt.Fprintf(w, "whatif_scenario_latency_ms_total{scenario=%q} %s\n", id, promFloat(s.ByScenario[id].LatencySumMs))
		}
	}

	if s.Stages.Count > 0 {
		fmt.Fprintf(w, "# HELP whatif_stage_ms_total Cumulative pipeline stage time in milliseconds.\n")
		fmt.Fprintf(w, "# TYPE whatif_stage_ms_total counter\n")
		n := float64(s.Stages.Count)
		for _, st := range []struct {
			name string
			ms   float64
		}{
			{"plan", s.Stages.PlanMs},
			{"scan", s.Stages.ScanMs},
			{"project", s.Stages.ProjectMs},
		} {
			fmt.Fprintf(w, "whatif_stage_ms_total{stage=%q} %s\n", st.name, promFloat(st.ms*n))
		}
		writePromCounter(w, "whatif_stage_queries_total", "Engine-backed queries contributing to stage totals.", s.Stages.Count)
	}

	writePromHistogram(w, "whatif_query_latency_ms", "End-to-end query latency in milliseconds.", s.latency)
	writePromHistogram(w, "whatif_query_chunks_read", "Chunks read per engine-backed query.", m.chunksRead.read())
	writePromHistogram(w, "whatif_segment_read_ms", "Durable segment fault-in duration in milliseconds.", s.segmentRead)
}
