package trace

// Exposition: snapshotting, tree reconstruction and text rendering.
// This file is the only place in the package allowed to import fmt —
// recording (trace.go) stays formatting-free; formatting happens once,
// when a human or an exporter asks for the trace.
//
//lint:coldfmt exposition-time rendering only; trace.go (the recording hot path) is fmt-free and hotpathfmt-checked

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Span is the exported read-only view of one recorded span.
type Span struct {
	// ID is the span's index in recording order; Parent is the parent
	// span's ID, or -1 for a root.
	ID     int
	Parent int
	Name   string
	// Start and End are monotonic offsets from the trace epoch. An
	// unfinished span (recording raced a panic or the buffer snapshot)
	// reports End == Start.
	Start time.Duration
	End   time.Duration
	Attrs []Attr
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Ms is the span's wall time in milliseconds.
func (s Span) Ms() float64 { return float64(s.End-s.Start) / float64(time.Millisecond) }

// Attr returns the value of the named attribute and whether it is set.
func (s Span) Attr(key string) (int64, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// Spans snapshots the recorded spans in recording order. Must not run
// concurrently with recording. Returns nil on a nil trace.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	out := make([]Span, n)
	for i := 0; i < n; i++ {
		sp := &t.spans[i]
		end := sp.endNs
		if end == 0 {
			end = sp.startNs
		}
		out[i] = Span{
			ID:     i,
			Parent: int(sp.parent),
			Name:   sp.name,
			Start:  time.Duration(sp.startNs),
			End:    time.Duration(end),
			Attrs:  append([]Attr(nil), sp.attrs[:sp.numAttrs]...),
		}
	}
	return out
}

// Node is one node of the reconstructed span tree.
type Node struct {
	Span
	Children []*Node
}

// Tree reconstructs the span forest (roots in start order, children in
// recording order). Spans whose parent was dropped become roots.
func (t *Trace) Tree() []*Node { return TreeOf(t.Spans()) }

// TreeOf reconstructs the span forest from an already-snapshotted span
// slice — the retained-trace path, where the recorder that produced
// the spans has long since been reset and pooled.
func TreeOf(spans []Span) []*Node {
	nodes := make([]*Node, len(spans))
	for i := range spans {
		nodes[i] = &Node{Span: spans[i]}
	}
	var roots []*Node
	for i, n := range nodes {
		p := spans[i].Parent
		if p >= 0 && p < len(nodes) && p != i {
			nodes[p].Children = append(nodes[p].Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].Start < roots[j].Start })
	return roots
}

// Render prints the span tree, one span per line, indented by depth:
//
//	eval                      12.104ms
//	  plan                     0.412ms  merge_groups=4
//	  scan                     8.031ms  chunks_read=52 cells_relocated=10400
//	    group 0                 2.113ms  chunks_read=13
//
// Durations are milliseconds with µs resolution; attributes render in
// recording order.
func (t *Trace) Render() string {
	if t == nil {
		return ""
	}
	return RenderSpans(t.Spans(), t.Dropped())
}

// RenderSpans renders an already-snapshotted span slice, and the count
// of spans its recorder dropped, in the same tree format — used by the
// server's retained traces, whose spans outlive the pooled recorder
// they were captured from.
func RenderSpans(spans []Span, dropped int) string {
	var b strings.Builder
	for _, root := range TreeOf(spans) {
		renderNode(&b, root, 0)
	}
	if dropped > 0 {
		fmt.Fprintf(&b, "(+%d spans dropped: buffer full)\n", dropped)
	}
	return b.String()
}

func renderNode(b *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%-32s %9.3fms", indent+n.Name, n.Ms())
	for _, a := range n.Attrs {
		fmt.Fprintf(b, "  %s=%d", a.Key, a.Val)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		renderNode(b, c, depth+1)
	}
}

// StageMs sums the durations of all spans with the given name — the
// per-stage total EXPLAIN ANALYZE reports and tests reconcile against
// core.Stats.
func (t *Trace) StageMs(name string) float64 {
	var ms float64
	for _, s := range t.Spans() {
		if s.Name == name {
			ms += s.Ms()
		}
	}
	return ms
}
