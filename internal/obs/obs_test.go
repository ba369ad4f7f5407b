package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"whatifolap/internal/trace"
)

func TestHistoryRingWraparound(t *testing.T) {
	h := NewHistory(4)
	if h.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", h.Cap())
	}
	for i := 1; i <= 10; i++ {
		h.Add(Sample{UnixMs: int64(i)})
	}
	got := h.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d samples, want 4", len(got))
	}
	// Oldest first, newest last: 7 8 9 10 survive.
	for i, want := range []int64{7, 8, 9, 10} {
		if got[i].UnixMs != want {
			t.Fatalf("snapshot[%d].UnixMs = %d, want %d (snapshot %+v)", i, got[i].UnixMs, want, got)
		}
	}
	if h.Total() != 10 {
		t.Fatalf("total = %d, want 10", h.Total())
	}
	last, ok := h.Last()
	if !ok || last.UnixMs != 10 {
		t.Fatalf("Last() = %+v, %v; want UnixMs 10", last, ok)
	}
}

func TestHistoryPartialAndNil(t *testing.T) {
	h := NewHistory(8)
	if _, ok := h.Last(); ok {
		t.Fatal("empty history reported a last sample")
	}
	h.Add(Sample{UnixMs: 1})
	h.Add(Sample{UnixMs: 2})
	got := h.Snapshot()
	if len(got) != 2 || got[0].UnixMs != 1 || got[1].UnixMs != 2 {
		t.Fatalf("partial snapshot = %+v, want [1 2]", got)
	}

	var nilH *History
	nilH.Add(Sample{})
	if nilH.Snapshot() != nil || nilH.Cap() != 0 || nilH.Total() != 0 {
		t.Fatal("nil history should be inert")
	}
	if _, ok := nilH.Last(); ok {
		t.Fatal("nil history reported a last sample")
	}
}

// spans builds a small span snapshot for retention tests.
func testSpans() []trace.Span {
	tr := trace.New(8)
	root := tr.Start(trace.SpanRef{}, "eval")
	child := tr.Start(root, "scan")
	child.Int("chunks_read", 3)
	child.End()
	root.End()
	return tr.Spans()
}

func TestRetainReasonsAndSampling(t *testing.T) {
	r := NewTraceRing(1<<20, 3)

	// Errors and slow queries always retain, regardless of the 1-in-N
	// clock.
	id := r.MaybeRetain(TraceMeta{Err: "boom"}, testSpans)
	if id == "" {
		t.Fatal("errored query was not retained")
	}
	if rt, ok := r.Get(id); !ok || rt.Reason != "error" {
		t.Fatalf("Get(%q) = %+v, %v; want reason error", id, rt, ok)
	}
	id = r.MaybeRetain(TraceMeta{QueryIdentity: QueryIdentity{LatencyMs: 900}, Slow: true}, testSpans)
	if rt, ok := r.Get(id); !ok || rt.Reason != "slow" {
		t.Fatalf("slow query retained as %+v, %v", rt, ok)
	}

	// Healthy queries: exactly one in three.
	var sampled int
	for i := 0; i < 9; i++ {
		if r.MaybeRetain(TraceMeta{QueryIdentity: QueryIdentity{Query: "q"}}, testSpans) != "" {
			sampled++
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 9 healthy queries, want 3", sampled)
	}
	for _, rt := range r.List() {
		if rt.Meta.Query == "q" && rt.Reason != "sampled" {
			t.Fatalf("healthy retention has reason %q, want sampled", rt.Reason)
		}
	}

	// sampleEvery <= 0 keeps only slow/errored.
	r2 := NewTraceRing(1<<20, 0)
	for i := 0; i < 10; i++ {
		if r2.MaybeRetain(TraceMeta{}, testSpans) != "" {
			t.Fatal("healthy query retained with sampling disabled")
		}
	}
	if r2.MaybeRetain(TraceMeta{Err: "x"}, testSpans) == "" {
		t.Fatal("errored query must retain even with sampling disabled")
	}
}

func TestRetainByteBudgetEviction(t *testing.T) {
	// Budget fits roughly three small traces; retain many and confirm
	// the ring stays within budget, evicting oldest first.
	spans := testSpans()
	perTrace := retainedTraceBase + len("q")
	for _, sp := range spans {
		perTrace += spanCost + attrCost*len(sp.Attrs)
	}
	r := NewTraceRing(perTrace*3, 1) // sample everything
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		ids = append(ids, r.MaybeRetain(TraceMeta{QueryIdentity: QueryIdentity{Query: "q"}}, func() []trace.Span { return spans }))
	}
	st := r.Stats()
	if st.Bytes > st.Budget {
		t.Fatalf("ring over budget: %d > %d", st.Bytes, st.Budget)
	}
	if st.Count != 3 {
		t.Fatalf("retained %d traces, want 3 (stats %+v)", st.Count, st)
	}
	if st.Evicted != 5 {
		t.Fatalf("evicted %d, want 5", st.Evicted)
	}
	// Oldest evicted, newest still addressable.
	if _, ok := r.Get(ids[0]); ok {
		t.Fatal("oldest trace survived past budget")
	}
	if _, ok := r.Get(ids[7]); !ok {
		t.Fatal("newest trace was evicted")
	}
	// List is newest first.
	list := r.List()
	if len(list) != 3 || list[0].ID != ids[7] || list[2].ID != ids[5] {
		t.Fatalf("List() order wrong: %v", []string{list[0].ID, list[1].ID, list[2].ID})
	}

	// A single trace above budget must still be kept (and addressable).
	tiny := NewTraceRing(1, 1)
	id := tiny.MaybeRetain(TraceMeta{QueryIdentity: QueryIdentity{Query: strings.Repeat("x", 100)}}, func() []trace.Span { return spans })
	if _, ok := tiny.Get(id); !ok {
		t.Fatal("oversized sole trace was evicted")
	}
}

func TestRetainDisabledZeroAllocs(t *testing.T) {
	// The common path — retention disabled (nil ring) or a healthy
	// unsampled query — must not allocate: it runs after every query.
	var nilRing *TraceRing
	m := TraceMeta{QueryIdentity: QueryIdentity{Query: "q"}}
	spans := func() []trace.Span { t.Fatal("spans snapshotted on non-retained query"); return nil }
	if got := testing.AllocsPerRun(100, func() {
		if nilRing.MaybeRetain(m, spans) != "" {
			t.Fatal("nil ring retained")
		}
	}); got != 0 {
		t.Fatalf("nil-ring MaybeRetain allocates %v/op, want 0", got)
	}

	r := NewTraceRing(1<<20, 1<<40) // sampling period beyond the run count
	r.sampleCount.Store(1)          // past the initial 1-in-N hit
	if got := testing.AllocsPerRun(100, func() {
		if r.MaybeRetain(m, spans) != "" {
			t.Fatal("unsampled query retained")
		}
	}); got != 0 {
		t.Fatalf("unsampled MaybeRetain allocates %v/op, want 0", got)
	}
}

func TestRetainConcurrentIDsUnique(t *testing.T) {
	r := NewTraceRing(64<<20, 1)
	const workers, per = 8, 50
	var dup atomic.Int64
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				if r.MaybeRetain(TraceMeta{Err: "e"}, testSpans) == "" {
					dup.Add(1)
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if dup.Load() != 0 {
		t.Fatal("errored retention returned empty id")
	}
	seen := make(map[string]bool)
	for _, rt := range r.List() {
		if seen[rt.ID] {
			t.Fatalf("duplicate trace id %s", rt.ID)
		}
		seen[rt.ID] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("retained %d unique ids, want %d", len(seen), workers*per)
	}
}

func TestEventLogRingAndSink(t *testing.T) {
	var sink bytes.Buffer
	l := NewEventLog(3, &sink)
	for i := 0; i < 5; i++ {
		l.Log("tick", map[string]string{"n": string(rune('a' + i))})
	}
	events, total := l.Snapshot()
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	if len(events) != 3 {
		t.Fatalf("retained %d events, want 3", len(events))
	}
	// Newest first: e, d, c.
	for i, want := range []string{"e", "d", "c"} {
		if events[i].Fields["n"] != want {
			t.Fatalf("events[%d] = %+v, want n=%s", i, events[i], want)
		}
	}
	// The sink saw every event as one JSON object per line.
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("sink has %d lines, want 5: %q", len(lines), sink.String())
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("sink line not JSON: %v", err)
	}
	if e.Type != "tick" || e.Time.IsZero() {
		t.Fatalf("decoded sink event %+v", e)
	}

	var nilLog *EventLog
	nilLog.Log("x", nil) // must not panic
	if ev, n := nilLog.Snapshot(); ev != nil || n != 0 {
		t.Fatal("nil event log should be inert")
	}
}

func TestHistoryCollectorTicks(t *testing.T) {
	var ticks atomic.Int64
	c := StartCollector(5*time.Millisecond, func() { ticks.Add(1) })
	defer c.Stop()
	deadline := time.After(2 * time.Second)
	for ticks.Load() < 3 {
		select {
		case <-deadline:
			t.Fatalf("collector produced %d ticks in 2s, want >= 3", ticks.Load())
		case <-time.After(time.Millisecond):
		}
	}
	c.Stop()
	n := ticks.Load()
	time.Sleep(20 * time.Millisecond)
	if got := ticks.Load(); got != n {
		t.Fatalf("collector ticked after Stop: %d -> %d", n, got)
	}
	c.Stop() // idempotent
	var nilC *Collector
	nilC.Stop() // nil-safe
	if nilC.Interval() != 0 {
		t.Fatal("nil collector interval should be 0")
	}
}

// TestRetainBoundsHealthySamples: healthy samples are a bounded recent
// window. Beyond maxSampledResident a new one displaces the oldest
// sample — so a ring far below its byte budget stops growing with the
// queries served — and never a slow or errored trace, however old.
func TestRetainBoundsHealthySamples(t *testing.T) {
	r := NewTraceRing(64<<20, 1) // sample every healthy query
	slow := r.MaybeRetain(TraceMeta{Slow: true}, testSpans)
	failed := r.MaybeRetain(TraceMeta{Err: "boom"}, testSpans)
	var ids []string
	for i := 0; i < maxSampledResident+8; i++ {
		ids = append(ids, r.MaybeRetain(TraceMeta{QueryIdentity: QueryIdentity{Query: "q"}}, testSpans))
	}
	st := r.Stats()
	if st.Count != maxSampledResident+2 || st.Evicted != 8 {
		t.Fatalf("ring holds %d traces after evicting %d, want %d and 8", st.Count, st.Evicted, maxSampledResident+2)
	}
	for _, id := range []string{slow, failed, ids[8], ids[len(ids)-1]} {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("trace %s was displaced by a healthy sample", id)
		}
	}
	if _, ok := r.Get(ids[7]); ok {
		t.Fatal("a healthy sample older than the window is still resident")
	}
	list := r.List()
	if list[0].ID != ids[len(ids)-1] || list[len(list)-1].ID != slow || list[len(list)-2].ID != failed {
		t.Fatalf("List() is not newest first with the old slow and errored traces last")
	}
	bytes := 0
	for _, rt := range list {
		bytes += rt.bytes
	}
	if bytes != st.Bytes {
		t.Fatalf("ring accounts %d bytes, its traces %d", st.Bytes, bytes)
	}
}

// TestSampleJSONRoundTrip: a sample is one flat JSON object — unix_ms,
// interval_ms, then its keys in order — and decodes back to the same
// keys, order and values.
func TestSampleJSONRoundTrip(t *testing.T) {
	in := Sample{UnixMs: 1760000000123, IntervalMs: 999.5, Keys: []string{"queries", "cache_hit_ratio", "p50_ms"}, Values: []float64{3, -1, 0.25}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"unix_ms":1760000000123,"interval_ms":999.5,"queries":3,"cache_hit_ratio":-1,"p50_ms":0.25}`; string(b) != want {
		t.Fatalf("marshal = %s, want %s", b, want)
	}
	var out Sample
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.UnixMs != in.UnixMs || out.IntervalMs != in.IntervalMs || strings.Join(out.Keys, ",") != strings.Join(in.Keys, ",") {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	for i, k := range in.Keys {
		if v, ok := out.Get(k); !ok || v != in.Values[i] {
			t.Fatalf("Get(%q) = %v, %v; want %v", k, v, ok, in.Values[i])
		}
	}
	if err := json.Unmarshal([]byte(`{"queries":"x"}`), &out); err == nil {
		t.Fatal("a non-numeric value decoded without error")
	}
}
