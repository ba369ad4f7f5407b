package main

import (
	"strings"
	"testing"
	"time"

	"whatifolap/internal/obs"
	"whatifolap/internal/server"
)

func TestTopSparkline(t *testing.T) {
	if got := sparkline(nil); got != "" {
		t.Fatalf("empty sparkline = %q", got)
	}
	// All-zero series stays at the baseline glyph.
	if got := sparkline([]float64{0, 0, 0}); got != "▁▁▁" {
		t.Fatalf("zero sparkline = %q", got)
	}
	// The maximum hits the tallest bar, zero the baseline.
	got := sparkline([]float64{0, 5, 10})
	runes := []rune(got)
	if len(runes) != 3 || runes[0] != '▁' || runes[2] != '█' {
		t.Fatalf("sparkline(0,5,10) = %q", got)
	}
}

func TestTopRenderHealthView(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

	// No samples yet: the view says so instead of plotting garbage.
	empty := renderTop("http://x:1", server.HistoryResponse{IntervalMs: 1000, Cap: 600}, now)
	if !strings.Contains(empty, "no samples yet") {
		t.Fatalf("empty view:\n%s", empty)
	}

	h := server.HistoryResponse{
		IntervalMs: 1000,
		Cap:        600,
		Total:      2,
		Samples: []obs.Sample{
			sampleOf("qps", 10, "queries", 10, "cache_hit_ratio", -1, "scan_amplification", -1, "p95_ms", 4),
			sampleOf("qps", 120.5, "queries", 120, "errors", 2, "slow_queries", 1,
				"cache_hits", 90, "cache_misses", 30, "cache_hit_ratio", 0.75,
				"p50_ms", 1.5, "p95_ms", 8.25, "p99_ms", 20,
				"cells_scanned", 5000, "cells_returned", 100, "scan_amplification", 50,
				"queue_depth", 3, "cache_bytes", 2<<20, "cache_limit_bytes", 8<<20, "writeback_pending", 1,
				"pool_resident_bytes", 64<<20, "pool_resident_chunks", 12, "pool_frames_recycled", 5,
				"retained_traces", 7, "retained_trace_bytes", 4096),
		},
	}
	out := renderTop("http://localhost:8080", h, now)
	for _, want := range []string{
		"http://localhost:8080",
		"qps 120.5",       // qps of the newest sample
		"hit_ratio 75.0%", // cache hit ratio
		"limit 8.0MiB",    // cache limit, in its row
		"amplification 50.0x",
		"p95 8.25ms",        // latency quantiles
		"resident 64.0MiB",  // pool resident bytes
		"frames_recycled 5", // the pool row's recycled frames
		"retained_traces 7", // trace ring occupancy
		"writeback_pending 1",
		"▁", // sparklines rendered
		"█",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("view missing %q:\n%s", want, out)
		}
	}
	// Every declared row and key is on the view.
	for _, row := range server.TopRows() {
		for _, k := range row.Keys {
			if !strings.Contains(out, "  "+row.Name) || !strings.Contains(out, " "+topLabel(row.Name, k)+" ") {
				t.Fatalf("view lacks row %s key %s:\n%s", row.Name, k, out)
			}
		}
	}
	// The -1 sentinels plot as baseline, not as negative bars, and the
	// ratio column shows a placeholder rather than -100%.
	if strings.Contains(out, "-100") || strings.Contains(out, "-1.0") {
		t.Fatalf("sentinel leaked into view:\n%s", out)
	}
}

// sampleOf builds a history sample from key, value pairs.
func sampleOf(kv ...interface{}) obs.Sample {
	var s obs.Sample
	for i := 0; i < len(kv); i += 2 {
		s.Keys = append(s.Keys, kv[i].(string))
		switch v := kv[i+1].(type) {
		case int:
			s.Values = append(s.Values, float64(v))
		case float64:
			s.Values = append(s.Values, v)
		}
	}
	return s
}
