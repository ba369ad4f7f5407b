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
	"bytes"
	"encoding/json"
	"strconv"
	"sync"
)

// Sample is one interval observation of the serving layer, produced by
// the collector at a fixed cadence: when it was taken, the wall time
// since the previous sample (what the deltas are over), and the
// declared metric values under their wire keys, in declaration order
// (internal/server's MetricsSnapshot tags declare them). Counters are
// deltas over the interval, gauges the level at sample time; ratios are
// -1 when the interval saw nothing to divide, so a quiet server is
// distinguishable from a 0% one. On the wire a sample is one flat JSON
// object.
type Sample struct {
	UnixMs     int64
	IntervalMs float64
	// Keys is shared by every sample of one collector: read-only.
	Keys   []string
	Values []float64
}

// Get returns the value under key and whether the sample holds it.
func (s Sample) Get(key string) (float64, bool) {
	for i, k := range s.Keys {
		if k == key {
			return s.Values[i], true
		}
	}
	return 0, false
}

// MarshalJSON writes the flat object: unix_ms, interval_ms, then each
// key in order.
func (s Sample) MarshalJSON() ([]byte, error) {
	b := strconv.AppendInt([]byte(`{"unix_ms":`), s.UnixMs, 10)
	b = strconv.AppendFloat(append(b, `,"interval_ms":`...), s.IntervalMs, 'f', -1, 64)
	for i, k := range s.Keys {
		b = append(strconv.AppendQuote(append(b, ','), k), ':')
		b = strconv.AppendFloat(b, s.Values[i], 'f', -1, 64)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads the flat object back, keeping the key order.
func (s *Sample) UnmarshalJSON(data []byte) error {
	*s = Sample{}
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token() // the opening brace
	for err == nil && dec.More() {
		var v float64
		if tok, err = dec.Token(); err == nil {
			err = dec.Decode(&v)
		}
		switch k, _ := tok.(string); k {
		case "unix_ms":
			s.UnixMs = int64(v)
		case "interval_ms":
			s.IntervalMs = v
		default:
			s.Keys, s.Values = append(s.Keys, k), append(s.Values, v)
		}
	}
	return err
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
