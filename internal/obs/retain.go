package obs

// Tail-sampled trace retention: the decision of whether to keep a
// query's span tree runs on the serving hot path — after every
// engine-backed query — so this file follows the hot-path rules
// (whatiflint hotpathfmt: no fmt/reflect/log, no per-call errors.New;
// IDs are built with strconv). The common outcomes are free: a nil
// ring (retention disabled) is one pointer check, a not-sampled
// healthy query is one atomic add — neither allocates, which is what
// keeps BenchmarkObsRetainOff at 0 allocs/op.

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"whatifolap/internal/trace"
)

// QueryIdentity is what every surface listing a retained query says
// about it: when it finished, the cube and, on the scenario path, the
// scenario id and workspace revision it ran against, its normalized
// text and its latency. The server's /debug/slowlog and /debug/trace
// entries embed it, so their shared JSON keys are declared once, here.
type QueryIdentity struct {
	Time        time.Time `json:"time"`
	Cube        string    `json:"cube"`
	Scenario    string    `json:"scenario,omitempty"`
	ScenarioRev int64     `json:"scenario_revision,omitempty"`
	Query       string    `json:"query"`
	LatencyMs   float64   `json:"latency_ms"`
}

// TraceMeta identifies one query execution to the retention ring. The
// caller (who owns the latency threshold policy) pre-computes Slow;
// the ring only decides retention and storage.
type TraceMeta struct {
	QueryIdentity
	// Err is the execution error, already formatted (the ring must not
	// format), empty on success.
	Err string
	// Slow marks a latency at or above the caller's slow-query threshold.
	Slow bool
	// Dropped counts the spans the recorder discarded because its buffer
	// was full; a rendering of the retained spans says so.
	Dropped int
}

// RetainedTrace is one kept query trace: identity, outcome, and the
// full span tree (not rendered text — /debug/trace/{id} and
// /debug/slowlog render on read, and tests reconcile span attributes
// against query stats).
type RetainedTrace struct {
	ID     string
	Meta   TraceMeta
	Reason string // "error", "slow" or "sampled"
	Spans  []trace.Span
	bytes  int
}

// retainedTraceBase estimates the fixed per-retention footprint
// (struct, map entry, queue slot); spanCost and attrCost the
// per-span/per-attr increments. The accounting is an estimate — what
// matters is that the budget bounds memory proportionally, not that it
// matches the allocator byte for byte.
const (
	retainedTraceBase = 192
	spanCost          = 112
	attrCost          = 24
)

// maxSampledResident bounds the healthy samples a ring holds at once.
// They are a recent baseline to read slow traces against, so a few
// dozen do; without the bound a ring below its byte budget grows with
// every 64th query the server completes — the faster the server, the
// larger its heap — and, once full, turns over at the rate of healthy
// traffic, taking the slow and errored traces it exists for with it.
const maxSampledResident = 32

// TraceRing retains query traces under a byte budget, oldest evicted
// first. Retention policy is tail-sampling: errored queries always,
// slow queries always, and one in sampleEvery healthy queries —
// rare-but-interesting executions survive, steady traffic is sampled
// thinly enough to stay cheap: a healthy sample beyond the newest
// maxSampledResident displaces the oldest sample, never a slow or
// errored trace.
type TraceRing struct {
	budget      int
	sampleEvery int64

	// seq numbers retained traces; sampleCount counts retention
	// decisions (the 1-in-N clock). Both atomic: decisions happen on
	// concurrent query handlers before the ring lock is taken.
	seq         atomic.Int64
	sampleCount atomic.Int64
	prefix      string

	mu      sync.Mutex
	queue   []*RetainedTrace // oldest first
	byID    map[string]*RetainedTrace
	bytes   int
	sampled int // resident traces whose Reason is "sampled"
	evicted int64
}

// NewTraceRing creates a retention ring with the given byte budget
// (values < 1 keep a single trace at a time) retaining one in
// sampleEvery healthy queries (<= 0: only slow and errored queries).
// The ID prefix derives from the wall clock so IDs from different
// server incarnations don't collide in logs.
func NewTraceRing(budgetBytes int, sampleEvery int) *TraceRing {
	return &TraceRing{
		budget:      budgetBytes,
		sampleEvery: int64(sampleEvery),
		prefix:      strconv.FormatInt(time.Now().Unix()&0xffffff, 36),
		byID:        make(map[string]*RetainedTrace),
	}
}

// MaybeRetain applies the tail-sampling policy to one finished query
// and, when it qualifies, snapshots its spans (the spans func is only
// called on retention — a skipped query never copies its trace) and
// stores them under a fresh trace ID. Returns the ID, or "" when the
// query was not retained or r is nil (retention disabled).
func (r *TraceRing) MaybeRetain(m TraceMeta, spans func() []trace.Span) string {
	if r == nil {
		return ""
	}
	var reason string
	switch {
	case m.Err != "":
		reason = "error"
	case m.Slow:
		reason = "slow"
	default:
		n := r.sampleEvery
		if n <= 0 {
			return ""
		}
		if (r.sampleCount.Add(1)-1)%n != 0 {
			return ""
		}
		reason = "sampled"
	}
	rt := &RetainedTrace{
		ID:     r.nextID(),
		Meta:   m,
		Reason: reason,
		Spans:  spans(),
	}
	rt.bytes = retainedTraceBase + len(m.Cube) + len(m.Scenario) + len(m.Query) + len(m.Err)
	for i := range rt.Spans {
		rt.bytes += spanCost + attrCost*len(rt.Spans[i].Attrs)
	}
	r.mu.Lock()
	if reason == "sampled" && r.sampled == maxSampledResident {
		for i, old := range r.queue {
			if old.Reason == "sampled" {
				r.drop(i)
				break
			}
		}
	}
	r.queue = append(r.queue, rt) // amortized growth, bounded by the byte budget
	r.byID[rt.ID] = rt
	r.bytes += rt.bytes
	if reason == "sampled" {
		r.sampled++
	}
	// Evict oldest-first down to budget, but always keep the newest
	// retention: a single oversized trace is still addressable.
	for r.bytes > r.budget && len(r.queue) > 1 {
		r.drop(0)
	}
	r.mu.Unlock()
	return rt.ID
}

// drop evicts the i-th oldest trace. Caller holds mu.
func (r *TraceRing) drop(i int) {
	old := r.queue[i]
	if i == 0 {
		r.queue = r.queue[1:]
	} else {
		r.queue = r.queue[:i+copy(r.queue[i:], r.queue[i+1:])]
	}
	delete(r.byID, old.ID)
	r.bytes -= old.bytes
	if old.Reason == "sampled" {
		r.sampled--
	}
	r.evicted++
}

// nextID builds a process-unique trace ID without formatting
// machinery: "t<prefix>-<seq base36>".
func (r *TraceRing) nextID() string {
	return "t" + r.prefix + "-" + strconv.FormatInt(r.seq.Add(1), 36)
}

// Get returns the retained trace with the given ID, if still resident.
// Nil-safe.
func (r *TraceRing) Get(id string) (*RetainedTrace, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rt, ok := r.byID[id]
	return rt, ok
}

// List returns the retained traces, newest first. Nil-safe.
func (r *TraceRing) List() []*RetainedTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*RetainedTrace, len(r.queue))
	for i, rt := range r.queue {
		out[len(r.queue)-1-i] = rt
	}
	return out
}

// RetainStats describes the ring's occupancy.
type RetainStats struct {
	Count   int   `json:"count"`
	Bytes   int   `json:"bytes"`
	Budget  int   `json:"budget_bytes"`
	Evicted int64 `json:"evicted"`
}

// Stats returns the ring's occupancy. Nil-safe (all zero).
func (r *TraceRing) Stats() RetainStats {
	if r == nil {
		return RetainStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return RetainStats{
		Count:   len(r.queue),
		Bytes:   r.bytes,
		Budget:  r.budget,
		Evicted: r.evicted,
	}
}
