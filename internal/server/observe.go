package server

// Continuous observability, server side: the sampler closure the
// obs.Collector drives (counter differencing lives here, next to the
// counters), the tail-sampling retention hook the query handlers call,
// and the HTTP handlers for /metrics/history, /debug/trace[/{id}] and
// /debug/events. The mechanisms (rings, ticker, budget accounting)
// live in internal/obs; this file is the policy glue.

import (
	"net/http"
	"strconv"
	"time"

	"whatifolap/internal/chunk"
	"whatifolap/internal/obs"
	"whatifolap/internal/trace"
)

// counterReading is one reading of the lifetime counters the history
// differences, and of the pool's state (zero without a pool).
type counterReading struct {
	at time.Time

	queries, errors, slow  int64
	cacheHits, cacheMisses int64
	scanned, returned      int64
	// lat are the latency histogram's per-bucket counts; differencing two
	// readings gives the interval's bucket counts, which quantileCounts
	// turns into interval quantiles.
	lat []int64
	// segSumMicro/segCount difference the segment-read histogram's sum
	// and count into an interval mean.
	segSumMicro, segCount int64
	pool                  chunk.SpillStats
}

// obsSampler holds the previous tick's counter reading so each
// obs.Sample reports interval deltas, not lifetime totals. sample runs
// on the collector goroutine only (or, in tests, called directly with
// the collector disabled), so prev needs no locking.
type obsSampler struct {
	s    *Server
	prev counterReading
	// underPressure is the eviction-pressure edge detector: a tick with
	// evictions starts pressure, a tick without ends it. Edge-triggered
	// events, not one per tick — sustained pressure is one event pair.
	underPressure bool
}

// newObsSampler primes the baseline so the first tick reports a full
// interval of deltas from server start.
func newObsSampler(s *Server) *obsSampler {
	sm := &obsSampler{s: s}
	sm.prime()
	return sm
}

func (sm *obsSampler) prime() { sm.prev = sm.read() }

// read takes one reading of every counter the sampler differences.
func (sm *obsSampler) read() counterReading {
	m := sm.s.metrics
	r := counterReading{
		at:          time.Now(),
		queries:     m.QueriesServed.Load(),
		errors:      m.QueryErrors.Load(),
		slow:        m.SlowQueries.Load(),
		cacheHits:   m.CacheHits.Load(),
		cacheMisses: m.CacheMisses.Load(),
		scanned:     m.CellsScanned.Load(),
		returned:    m.CellsReturned.Load(),
		lat:         m.latency.countsSnapshot(),
		segSumMicro: m.segmentReadMs.sumMicro.Load(),
		segCount:    m.segmentReadMs.count.Load(),
	}
	if m.poolStats != nil {
		r.pool = m.poolStats()
	}
	return r
}

// sample reads the counters, differences them against the previous
// tick, pushes one obs.Sample into the history ring, and emits
// eviction-pressure edge events.
func (sm *obsSampler) sample() {
	m := sm.s.metrics
	cur, prev := sm.read(), sm.prev
	sm.prev = cur
	interval := cur.at.Sub(prev.at)

	out := obs.Sample{
		UnixMs:        cur.at.UnixMilli(),
		IntervalMs:    float64(interval) / float64(time.Millisecond),
		Queries:       cur.queries - prev.queries,
		Errors:        cur.errors - prev.errors,
		SlowQueries:   cur.slow - prev.slow,
		CacheHits:     cur.cacheHits - prev.cacheHits,
		CacheMisses:   cur.cacheMisses - prev.cacheMisses,
		CellsScanned:  cur.scanned - prev.scanned,
		CellsReturned: cur.returned - prev.returned,

		PoolResidentBytes:  cur.pool.ResidentBytes,
		PoolResidentChunks: cur.pool.Resident,
		PoolSpilledChunks:  cur.pool.Spilled,
		PoolPinned:         cur.pool.Pinned,
		PoolEvictions:      int64(cur.pool.Evictions - prev.pool.Evictions),
		PoolFaults:         int64(cur.pool.Faults - prev.pool.Faults),
	}
	if interval > 0 {
		out.QPS = float64(out.Queries) / interval.Seconds()
	}
	if lookups := out.CacheHits + out.CacheMisses; lookups > 0 {
		out.CacheHitRatio = float64(out.CacheHits) / float64(lookups)
	} else {
		out.CacheHitRatio = -1
	}
	if out.CellsReturned > 0 {
		out.ScanAmplification = float64(out.CellsScanned) / float64(out.CellsReturned)
	} else {
		out.ScanAmplification = -1
	}

	delta := make([]int64, len(cur.lat))
	for i := range delta {
		delta[i] = cur.lat[i] - prev.lat[i]
	}
	out.P50Ms = quantileCounts(m.latency.bounds, delta, 0.50)
	out.P95Ms = quantileCounts(m.latency.bounds, delta, 0.95)
	out.P99Ms = quantileCounts(m.latency.bounds, delta, 0.99)

	if dn := cur.segCount - prev.segCount; dn > 0 {
		out.SegmentReadMs = float64(cur.segSumMicro-prev.segSumMicro) / 1e6 / float64(dn)
	}

	if m.queueDepth != nil {
		out.QueueDepth = m.queueDepth()
	}
	if m.cacheBytes != nil {
		out.CacheBytes = m.cacheBytes()
		out.CacheLimitBytes = m.cacheLimit()
	}
	if m.writebackPending != nil {
		out.WritebackPending = m.writebackPending()
	}

	rs := sm.s.traces.Stats()
	out.RetainedTraces = rs.Count
	out.RetainedTraceBytes = rs.Bytes

	sm.s.history.Add(out)

	// Eviction-pressure edges: the pool started (or stopped) evicting
	// this interval.
	if out.PoolEvictions > 0 && !sm.underPressure {
		sm.underPressure = true
		sm.s.events.Log("eviction_pressure", map[string]string{
			"evictions":      strconv.FormatInt(out.PoolEvictions, 10),
			"resident_bytes": strconv.Itoa(out.PoolResidentBytes),
		})
	} else if out.PoolEvictions == 0 && sm.underPressure {
		sm.underPressure = false
		sm.s.events.Log("eviction_pressure_cleared", map[string]string{
			"resident_bytes": strconv.Itoa(out.PoolResidentBytes),
		})
	}
}

// recordTrace is where every executed query's trace ends up, failed or
// not. The tail-sampling ring keeps the span tree of slow, errored and
// 1-in-N queries; a successful query at or over the slow-query
// threshold also enters the slow-query log, linked to its retained
// trace — one threshold, two consumers. The log renders the trace
// eagerly: the buffer goes back to the pool when the handler returns,
// but the entry must outlive it. Returns the retained trace ID, or ""
// (retention disabled, or the query was not sampled).
func (s *Server) recordTrace(tr *trace.Trace, key cacheKey, elapsed time.Duration, qerr error) string {
	now := time.Now()
	ms := float64(elapsed) / float64(time.Millisecond)
	slow := s.cfg.SlowQueryMs >= 0 && ms >= s.cfg.SlowQueryMs
	var id string
	if s.traces != nil {
		m := obs.TraceMeta{
			Time:        now,
			Cube:        key.Cube,
			Scenario:    key.Scenario,
			ScenarioRev: key.ScenarioRev,
			Query:       key.Query,
			LatencyMs:   ms,
			Slow:        slow,
		}
		if qerr != nil {
			m.Err = qerr.Error()
		}
		id = s.traces.MaybeRetain(m, tr.Spans)
	}
	if slow && qerr == nil {
		s.metrics.SlowQueries.Add(1)
		s.slowlog.record(SlowQueryRecord{
			Time:        now,
			Cube:        key.Cube,
			Scenario:    key.Scenario,
			ScenarioRev: key.ScenarioRev,
			Query:       key.Query,
			LatencyMs:   ms,
			Trace:       tr.Render(),
			TraceID:     id,
		})
	}
	return id
}

// HistoryResponse is the GET /metrics/history body. Exported so the
// whatif -top client can decode it.
type HistoryResponse struct {
	// IntervalMs is the configured collector cadence (0 when the
	// collector is disabled); each sample carries its measured interval.
	IntervalMs float64      `json:"interval_ms"`
	Cap        int          `json:"cap"`
	Total      int64        `json:"total"`
	Samples    []obs.Sample `json:"samples"`
}

func (s *Server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HistoryResponse{
		IntervalMs: float64(s.collector.Interval()) / float64(time.Millisecond),
		Cap:        s.history.Cap(),
		Total:      s.history.Total(),
		Samples:    s.history.Snapshot(),
	})
}

// TraceSpan is the wire shape of one retained span.
type TraceSpan struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Name    string           `json:"name"`
	StartMs float64          `json:"start_ms"`
	EndMs   float64          `json:"end_ms"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// TraceResponse is the GET /debug/trace/{id} body: the query's
// identity, outcome, raw spans, and the rendered tree for humans.
type TraceResponse struct {
	ID          string      `json:"id"`
	Time        time.Time   `json:"time"`
	Cube        string      `json:"cube"`
	Scenario    string      `json:"scenario,omitempty"`
	ScenarioRev int64       `json:"scenario_revision,omitempty"`
	Query       string      `json:"query"`
	LatencyMs   float64     `json:"latency_ms"`
	Reason      string      `json:"reason"`
	Error       string      `json:"error,omitempty"`
	Spans       []TraceSpan `json:"spans"`
	Rendered    string      `json:"rendered"`
}

func toTraceResponse(rt *obs.RetainedTrace) TraceResponse {
	resp := TraceResponse{
		ID:          rt.ID,
		Time:        rt.Meta.Time,
		Cube:        rt.Meta.Cube,
		Scenario:    rt.Meta.Scenario,
		ScenarioRev: rt.Meta.ScenarioRev,
		Query:       rt.Meta.Query,
		LatencyMs:   rt.Meta.LatencyMs,
		Reason:      rt.Reason,
		Error:       rt.Meta.Err,
		Spans:       make([]TraceSpan, len(rt.Spans)),
		Rendered:    trace.RenderSpans(rt.Spans),
	}
	for i, sp := range rt.Spans {
		ts := TraceSpan{
			ID:      sp.ID,
			Parent:  sp.Parent,
			Name:    sp.Name,
			StartMs: float64(sp.Start) / float64(time.Millisecond),
			EndMs:   float64(sp.End) / float64(time.Millisecond),
		}
		if len(sp.Attrs) > 0 {
			ts.Attrs = make(map[string]int64, len(sp.Attrs))
			for _, a := range sp.Attrs {
				ts.Attrs[a.Key] = a.Val
			}
		}
		resp.Spans[i] = ts
	}
	return resp
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt, ok := s.traces.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"no retained trace " + id + " (evicted, or retention disabled)"})
		return
	}
	writeJSON(w, http.StatusOK, toTraceResponse(rt))
}

// traceSummary is one entry of the GET /debug/trace listing.
type traceSummary struct {
	ID          string    `json:"id"`
	Time        time.Time `json:"time"`
	Cube        string    `json:"cube"`
	Scenario    string    `json:"scenario,omitempty"`
	ScenarioRev int64     `json:"scenario_revision,omitempty"`
	Query       string    `json:"query"`
	LatencyMs   float64   `json:"latency_ms"`
	Reason      string    `json:"reason"`
	Error       string    `json:"error,omitempty"`
	Spans       int       `json:"spans"`
}

// traceListResponse is the GET /debug/trace body.
type traceListResponse struct {
	Stats  obs.RetainStats `json:"stats"`
	Traces []traceSummary  `json:"traces"`
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	retained := s.traces.List()
	resp := traceListResponse{
		Stats:  s.traces.Stats(),
		Traces: make([]traceSummary, len(retained)),
	}
	for i, rt := range retained {
		resp.Traces[i] = traceSummary{
			ID:          rt.ID,
			Time:        rt.Meta.Time,
			Cube:        rt.Meta.Cube,
			Scenario:    rt.Meta.Scenario,
			ScenarioRev: rt.Meta.ScenarioRev,
			Query:       rt.Meta.Query,
			LatencyMs:   rt.Meta.LatencyMs,
			Reason:      rt.Reason,
			Error:       rt.Meta.Err,
			Spans:       len(rt.Spans),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// eventsResponse is the GET /debug/events body.
type eventsResponse struct {
	Total  int64       `json:"total"`
	Events []obs.Event `json:"events"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	events, total := s.events.Snapshot()
	writeJSON(w, http.StatusOK, eventsResponse{Total: total, Events: events})
}
