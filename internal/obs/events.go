package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one structured component-lifecycle event: catalog restore,
// version publish, scenario commit or conflict, write-back completion,
// eviction-pressure crossings. Fields are flat strings — events are
// for operators and log pipelines, not for high-cardinality metrics.
type Event struct {
	Time   time.Time         `json:"time"`
	Type   string            `json:"type"`
	Fields map[string]string `json:"fields,omitempty"`
}

// DefaultEventLogSize is the event capacity NewEventLog(0) allocates.
const DefaultEventLogSize = 256

// EventLog is a fixed-capacity ring of lifecycle events with an
// optional JSON-lines sink: every event is retained for /debug/events
// and, when a sink is attached (whatifd passes stderr), written out as
// one JSON object per line — the structured replacement for the
// daemon's ad-hoc prints. A nil *EventLog drops everything, so
// library code can log unconditionally.
type EventLog struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total int64
	sink  io.Writer
}

// NewEventLog creates an event log holding up to capacity events
// (DefaultEventLogSize when capacity <= 0), tee'd to sink when non-nil.
func NewEventLog(capacity int, sink io.Writer) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventLogSize
	}
	return &EventLog{buf: make([]Event, 0, capacity), sink: sink}
}

// Log records one event. Nil-safe; sink write failures are dropped —
// an unwritable log stream must never take the serving path down.
func (l *EventLog) Log(typ string, fields map[string]string) {
	if l == nil {
		return
	}
	e := Event{Time: time.Now(), Type: typ, Fields: fields}
	l.mu.Lock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.next] = e
	}
	l.next = (l.next + 1) % cap(l.buf)
	l.total++
	sink := l.sink
	l.mu.Unlock()
	if sink != nil {
		if line, err := json.Marshal(e); err == nil {
			line = append(line, '\n')
			_, _ = sink.Write(line)
		}
	}
}

// Snapshot returns the retained events, newest first, plus the count
// ever logged. Nil-safe.
func (l *EventLog) Snapshot() ([]Event, int64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	for i := 0; i < len(l.buf); i++ {
		out = append(out, l.buf[(l.next-1-i+len(l.buf))%len(l.buf)])
	}
	return out, l.total
}
