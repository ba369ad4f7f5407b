package server

// Continuous observability, server side: the sampler closure the
// obs.Collector drives (it differences two Metrics snapshots), the
// tail-sampling retention hook the query handlers call, and the HTTP
// handlers for /metrics/history, /debug/slowlog, /debug/trace[/{id}]
// and /debug/events. The mechanisms (rings, ticker, budget accounting)
// live in internal/obs; this file is the policy glue.

import (
	"net/http"
	"reflect"
	"strconv"
	"time"

	"whatifolap/internal/obs"
	"whatifolap/internal/trace"
)

// obsSampler holds the previous tick's metrics snapshot so each
// obs.Sample reports interval deltas, not lifetime totals. sample runs
// on the collector goroutine only (or, in tests, called directly with
// the collector disabled), so prev needs no locking.
type obsSampler struct {
	s    *Server
	prev MetricsSnapshot
	// underPressure is the eviction-pressure edge detector: a tick with
	// evictions starts pressure, a tick without ends it. Edge-triggered
	// events, not one per tick — sustained pressure is one event pair.
	underPressure bool
}

// newObsSampler takes the baseline snapshot so the first tick reports
// a full interval of deltas from server start.
func newObsSampler(s *Server) *obsSampler {
	return &obsSampler{s: s, prev: s.metrics.Snapshot()}
}

// sample differences the current metrics snapshot against the previous
// tick's (since), pushes the interval's declared history values as one
// obs.Sample into the history ring, and emits eviction-pressure edge
// events.
func (sm *obsSampler) sample() {
	cur, prev := sm.s.metrics.Snapshot(), sm.prev
	sm.prev = cur
	d := cur.since(prev)
	vals := make([]float64, 0, len(historyKeys))
	d.history(func(_ reflect.StructField, _ string, v float64) { vals = append(vals, v) })
	sm.s.history.Add(obs.Sample{
		UnixMs:     cur.at.UnixMilli(),
		IntervalMs: float64(cur.at.Sub(prev.at)) / float64(time.Millisecond),
		Keys:       historyKeys,
		Values:     vals,
	})

	// Eviction-pressure edges: the pool started (or stopped) evicting
	// this interval.
	fields := map[string]string{"resident_bytes": strconv.Itoa(d.Pool.ResidentBytes)}
	if d.Pool.Evictions > 0 && !sm.underPressure {
		sm.underPressure = true
		fields["evictions"] = strconv.Itoa(d.Pool.Evictions)
		sm.s.events.Log("eviction_pressure", fields)
	} else if d.Pool.Evictions == 0 && sm.underPressure {
		sm.underPressure = false
		sm.s.events.Log("eviction_pressure_cleared", fields)
	}
}

// gauges fills a metrics snapshot's levels: the executor queue, the
// result cache, the buffer pools of the catalog's current cube
// versions, the trace ring and, with a persister (whatifd -data-dir),
// the write-back backlog.
func (s *Server) gauges(ms *MetricsSnapshot) {
	ms.QueueDepth, ms.CacheBytes, ms.CacheLimitBytes = s.exec.QueueDepth(), s.cache.Bytes(), s.cache.Limit()
	ps, rs := s.catalog.PoolStats(), s.traces.Stats()
	ms.Pool = PoolSnapshot{ps.Resident, ps.Spilled, ps.Faults, ps.Evictions, ps.Pinned, ps.ResidentBytes, ps.Recycled}
	ms.RetainedTraces, ms.RetainedTraceBytes = rs.Count, rs.Bytes
	if p := s.catalog.Persister(); p != nil {
		ms.WritebackPending = p.Pending()
	}
}

// recordTrace is where every executed query's trace ends up, failed or
// not. A successful query at or over the slow-query threshold counts
// as slow; the tail-sampling ring keeps the span tree of slow, errored
// and 1-in-N queries, and is the slow-query log's only store. Returns
// the retained trace ID, or "" (retention disabled, or the query was
// not sampled).
func (s *Server) recordTrace(tr *trace.Trace, key cacheKey, elapsed time.Duration, qerr error) string {
	ms := float64(elapsed) / float64(time.Millisecond)
	slow := s.cfg.SlowQueryMs >= 0 && ms >= s.cfg.SlowQueryMs
	if slow && qerr == nil {
		s.metrics.SlowQueries.Add(1)
	}
	if s.traces == nil {
		return ""
	}
	m := obs.TraceMeta{
		QueryIdentity: obs.QueryIdentity{
			Time:        time.Now(),
			Cube:        key.Cube,
			Scenario:    key.Scenario,
			ScenarioRev: key.ScenarioRev,
			Query:       key.Query,
			LatencyMs:   ms,
		},
		Slow:    slow,
		Dropped: tr.Dropped(),
	}
	if qerr != nil {
		m.Err = qerr.Error()
	}
	return s.traces.MaybeRetain(m, tr.Spans)
}

// renderRetained is a retained trace's span tree as text, the same on
// every endpoint that shows it.
func renderRetained(rt *obs.RetainedTrace) string {
	return trace.RenderSpans(rt.Spans, rt.Meta.Dropped)
}

// SlowQueryRecord is one /debug/slowlog entry: a retained slow query's
// identity, its span tree rendered when the log is read, and the ID
// that addresses the same tree at /debug/trace/{id}.
type SlowQueryRecord struct {
	obs.QueryIdentity
	Trace   string `json:"trace,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
}

// slowlogResponse is the GET /debug/slowlog body. Total counts every
// slow query served; Queries are the ones the trace ring still holds.
type slowlogResponse struct {
	ThresholdMs float64           `json:"threshold_ms"`
	Total       int64             `json:"total"`
	Queries     []SlowQueryRecord `json:"queries"`
}

// slowQueries lists the trace ring's slow traces, newest first.
func (s *Server) slowQueries() []SlowQueryRecord {
	out := make([]SlowQueryRecord, 0)
	for _, rt := range s.traces.List() {
		if rt.Reason == "slow" {
			out = append(out, SlowQueryRecord{QueryIdentity: rt.Meta.QueryIdentity, Trace: renderRetained(rt), TraceID: rt.ID})
		}
	}
	return out
}

func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, slowlogResponse{
		ThresholdMs: s.cfg.SlowQueryMs,
		Total:       s.metrics.SlowQueries.Load(),
		Queries:     s.slowQueries(),
	})
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

// traceHead opens every /debug/trace entry: the trace ID, the query's
// identity, and why the ring kept it.
type traceHead struct {
	ID string `json:"id"`
	obs.QueryIdentity
	Reason string `json:"reason"`
	Error  string `json:"error,omitempty"`
}

func headOf(rt *obs.RetainedTrace) traceHead {
	return traceHead{ID: rt.ID, QueryIdentity: rt.Meta.QueryIdentity, Reason: rt.Reason, Error: rt.Meta.Err}
}

// TraceResponse is the GET /debug/trace/{id} body: the query's
// identity, outcome, raw spans, and the rendered tree for humans.
type TraceResponse struct {
	traceHead
	Spans    []TraceSpan `json:"spans"`
	Rendered string      `json:"rendered"`
}

func toTraceResponse(rt *obs.RetainedTrace) TraceResponse {
	resp := TraceResponse{
		traceHead: headOf(rt),
		Spans:     make([]TraceSpan, len(rt.Spans)),
		Rendered:  renderRetained(rt),
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
	traceHead
	Spans int `json:"spans"`
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
		resp.Traces[i] = traceSummary{traceHead: headOf(rt), Spans: len(rt.Spans)}
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
