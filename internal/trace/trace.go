// Package trace is the pipeline's span recorder: a per-query tree of
// timed spans (parse → plan → scan → per-merge-group children → merge →
// assemble → project) with integer counter annotations, threaded
// through the engine by context propagation.
//
// The design goal is that tracing costs nothing when it is off and
// almost nothing when it is on:
//
//   - Off is the nil *Trace. Every method has a nil receiver fast path,
//     SpanRef is a two-word value, and no call allocates — the
//     instrumented hot paths (chunk scan, overlay writes) stay at zero
//     allocations per cell (pinned by BenchmarkTraceOff).
//   - On, spans live in one buffer preallocated at New; starting a span
//     claims a slot with one atomic add (safe for the parallel
//     merge-group scan workers), timestamps come from the monotonic
//     clock via a single time.Since against the trace epoch, and
//     attributes are fixed-size key/int64 pairs — no maps, no
//     interfaces, no formatting. When the buffer fills, further spans
//     are counted as dropped rather than grown.
//
// Formatting (Render, Tree) lives in render.go; this file must not
// import fmt — span *recording* is on the query hot path, span
// *formatting* happens only at exposition time (EXPLAIN ANALYZE, the
// slow-query log, whatif -trace). verify.sh enforces the split.
package trace

import (
	"context"
	"sync/atomic"
	"time"
)

// maxAttrs bounds the counter annotations per span. Fixed so a span is
// a flat value in the preallocated buffer; sized for the busiest span
// the pipeline records (a "scan" span whose reads faulted, whose slabs
// were masked and whose overlay promoted carries nine).
const maxAttrs = 10

// DefaultMaxSpans is the span-buffer capacity New(0) allocates: enough
// for a cold scan (one span per spill fault) without growing.
const DefaultMaxSpans = 512

// Attr is one integer annotation on a span. Keys must be static
// strings (no formatting on the hot path); values are raw counts, or
// microseconds for durations by convention (µs-suffixed keys).
type Attr struct {
	Key string
	Val int64
}

// span is the in-buffer representation. Fields are written only by the
// goroutine that started the span, before End publishes it; readers
// (Render, Spans) run after the traced execution has completed.
type span struct {
	name     string
	parent   int32
	startNs  int64 // monotonic offset from the trace epoch
	endNs    int64 // 0 while the span is open
	numAttrs int32
	attrs    [maxAttrs]Attr
}

// Trace records one query's span tree. Create with New, propagate with
// NewContext/FromContext, read with Spans/Tree/Render after the traced
// execution finishes. A nil *Trace is the disabled recorder: every
// method is a no-op, so instrumented code never branches on "is
// tracing on" itself.
//
// Concurrency: Start/Record are safe from concurrent goroutines (slot
// claims are atomic); a SpanRef must be ended and annotated only by
// the goroutine holding it. Reading APIs must not run concurrently
// with recording — the pipeline records while executing and exposes
// the trace only after the query returns.
type Trace struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int32
	dropped atomic.Int32
}

// New creates a trace with a span buffer of the given capacity
// (DefaultMaxSpans when maxSpans <= 0). The buffer is the only
// allocation tracing ever makes; reuse traces across queries with
// Reset (the serving layer pools them).
func New(maxSpans int) *Trace {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Trace{epoch: time.Now(), spans: make([]span, maxSpans)}
}

// Reset rewinds the trace for reuse: the span buffer is kept, the
// epoch restarts now. Not safe concurrently with recording.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	for i := 0; i < n; i++ {
		t.spans[i] = span{}
	}
	t.next.Store(0)
	t.dropped.Store(0)
	t.epoch = time.Now()
}

// Enabled reports whether the trace records spans (false for nil).
func (t *Trace) Enabled() bool { return t != nil }

// Dropped reports spans discarded because the buffer was full.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	return int(t.dropped.Load())
}

// Now returns the monotonic offset from the trace epoch, or 0 when
// tracing is off. Instrumentation uses it to timestamp conditional
// spans (Record) without claiming a slot up front.
func (t *Trace) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// SpanRef addresses one recorded span. The zero SpanRef is both "no
// parent" (a root span) and the no-op ref returned when tracing is off
// or the buffer is full; all its methods do nothing.
type SpanRef struct {
	t  *Trace
	id int32
}

// Valid reports whether the ref addresses a recorded span.
func (s SpanRef) Valid() bool { return s.t != nil }

// Start claims a span named name under parent (the zero SpanRef makes
// a root span), open until End. On a nil trace, or when the buffer is
// full (counted in Dropped), the returned ref is a no-op.
func (t *Trace) Start(parent SpanRef, name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	id := t.next.Add(1) - 1
	if int(id) >= len(t.spans) {
		t.dropped.Add(1)
		return SpanRef{}
	}
	sp := &t.spans[id]
	sp.name = name
	sp.parent = parentID(parent)
	sp.startNs = int64(time.Since(t.epoch))
	return SpanRef{t: t, id: id}
}

// Record claims an already-timed span: startNs/endNs are offsets from
// the trace epoch as returned by Now. Instrumentation uses it for
// spans that exist only in hindsight — e.g. a chunk read turns into a
// "fault" span only if the buffer pool actually faulted.
func (t *Trace) Record(parent SpanRef, name string, startNs, endNs int64) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	id := t.next.Add(1) - 1
	if int(id) >= len(t.spans) {
		t.dropped.Add(1)
		return SpanRef{}
	}
	sp := &t.spans[id]
	sp.name = name
	sp.parent = parentID(parent)
	sp.startNs = startNs
	sp.endNs = endNs
	return SpanRef{t: t, id: id}
}

func parentID(parent SpanRef) int32 {
	if parent.t == nil {
		return -1
	}
	return parent.id
}

// End closes the span at the current monotonic offset. No-op on an
// invalid ref; ending twice keeps the first end.
func (s SpanRef) End() {
	if s.t == nil {
		return
	}
	sp := &s.t.spans[s.id]
	if sp.endNs == 0 {
		sp.endNs = int64(time.Since(s.t.epoch))
	}
}

// Int annotates the span with a key/value counter. Attributes beyond
// the span's fixed capacity are dropped silently (the caps are sized
// for the pipeline's instrumentation). Keys must be static strings.
func (s SpanRef) Int(key string, v int64) {
	if s.t == nil {
		return
	}
	sp := &s.t.spans[s.id]
	if sp.numAttrs >= maxAttrs {
		return
	}
	sp.attrs[sp.numAttrs] = Attr{Key: key, Val: v}
	sp.numAttrs++
}

// IntNonZero is Int that skips zero values, keeping rendered spans to
// the counters that actually moved.
func (s SpanRef) IntNonZero(key string, v int64) {
	if v != 0 {
		s.Int(key, v)
	}
}

// ctxKey is the context key type for trace propagation.
type ctxKey struct{}

// NewContext returns a context carrying the trace. A nil trace returns
// ctx unchanged, so callers can thread "maybe tracing" without
// branching.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil (the disabled
// recorder) when ctx is nil or carries none. The nil result is usable:
// all recording methods no-op on it.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// spanCtxKey is the context key type for the current parent span.
type spanCtxKey struct{}

// WithSpan returns a context carrying sp as the current parent span, so
// a lower layer's spans nest under the caller's (the evaluator's "eval"
// span parents the engine's "plan"/"scan"/...). An invalid ref returns
// ctx unchanged.
func WithSpan(ctx context.Context, sp SpanRef) context.Context {
	if !sp.Valid() {
		return ctx
	}
	// Called at query-setup boundaries, never per cell.
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the context's current parent span, or the
// zero SpanRef (a root parent) when ctx is nil or carries none.
func SpanFromContext(ctx context.Context) SpanRef {
	if ctx == nil {
		return SpanRef{}
	}
	sp, _ := ctx.Value(spanCtxKey{}).(SpanRef)
	return sp
}
