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
			{QPS: 10, Queries: 10, CacheHitRatio: -1, ScanAmplification: -1, P95Ms: 4},
			{
				QPS: 120.5, Queries: 120, Errors: 2, SlowQueries: 1,
				CacheHits: 90, CacheMisses: 30, CacheHitRatio: 0.75,
				P50Ms: 1.5, P95Ms: 8.25, P99Ms: 20,
				CellsScanned: 5000, CellsReturned: 100, ScanAmplification: 50,
				QueueDepth: 3, CacheBytes: 2 << 20, CacheLimitBytes: 8 << 20, WritebackPending: 1,
				PoolResidentBytes: 64 << 20, PoolResidentChunks: 12,
				RetainedTraces: 7, RetainedTraceBytes: 4096,
			},
		},
	}
	out := renderTop("http://localhost:8080", h, now)
	for _, want := range []string{
		"http://localhost:8080",
		"120.5", // qps of the newest sample
		"75.0%", // cache hit ratio
		"2.0MiB of 8.0MiB limit",
		"50.0x",       // scan amplification
		"p95 8.25ms",  // latency quantiles
		"64.0MiB",     // pool resident bytes
		"7 retained",  // trace ring occupancy
		"writeback 1", // write-back backlog
		"▁",           // sparklines rendered
		"█",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("view missing %q:\n%s", want, out)
		}
	}
	// The -1 sentinels plot as baseline, not as negative bars, and the
	// ratio column shows a placeholder rather than -100%.
	if strings.Contains(out, "-100") || strings.Contains(out, "-1.0") {
		t.Fatalf("sentinel leaked into view:\n%s", out)
	}
}
