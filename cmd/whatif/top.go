package main

// whatif -top: a live terminal health view over a running whatifd,
// built entirely from GET /metrics/history — the same interval samples
// any other consumer of the endpoint sees. Rendering is a pure
// function of one HistoryResponse so it can be unit-tested without a
// daemon.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"whatifolap/internal/obs"
	"whatifolap/internal/server"
)

// runTop polls base's /metrics/history every interval and repaints the
// terminal until interrupted. Transient fetch errors are shown in
// place of the dashboard and retried — a daemon restart should not
// kill the viewer.
func runTop(base string, every time.Duration, out io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: 10 * time.Second}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		h, err := fetchHistory(ctx, client, base)
		fmt.Fprint(out, "\x1b[H\x1b[2J") // cursor home + clear screen
		if err != nil {
			fmt.Fprintf(out, "whatif -top: %s\n  %v\n  (retrying every %s)\n", base, err, every)
		} else {
			fmt.Fprint(out, renderTop(base, h, time.Now()))
		}
		select {
		case <-ctx.Done():
			fmt.Fprintln(out)
			return nil
		case <-tick.C:
		}
	}
}

func fetchHistory(ctx context.Context, client *http.Client, base string) (server.HistoryResponse, error) {
	var h server.HistoryResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics/history", nil)
	if err != nil {
		return h, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("GET /metrics/history: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("decoding /metrics/history: %w", err)
	}
	return h, nil
}

// topSparkWidth bounds the sparkline to the most recent samples so the
// view fits a terminal row.
const topSparkWidth = 60

// renderTop formats one dashboard frame from a history snapshot. Pure:
// no clock reads, no IO — now is the caller's.
func renderTop(base string, h server.HistoryResponse, now time.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "whatif -top  %s  %s\n", base, now.Format("15:04:05"))
	if len(h.Samples) == 0 {
		fmt.Fprintf(&b, "  no samples yet (collector interval %.0fms, ring cap %d)\n", h.IntervalMs, h.Cap)
		return b.String()
	}
	last := h.Samples[len(h.Samples)-1]
	fmt.Fprintf(&b, "samples %d/%d (total %d), interval %.0fms\n\n",
		len(h.Samples), h.Cap, h.Total, h.IntervalMs)

	fmt.Fprintf(&b, "  qps      %8.1f   queries %6d   errors %5d   slow %5d\n",
		last.QPS, last.Queries, last.Errors, last.SlowQueries)
	fmt.Fprintf(&b, "  latency  p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
		last.P50Ms, last.P95Ms, last.P99Ms)
	fmt.Fprintf(&b, "  cache    %s hit ratio   %d hits / %d misses   %s of %s limit\n",
		ratioStr(last.CacheHitRatio), last.CacheHits, last.CacheMisses,
		byteStr(int64(last.CacheBytes)), byteStr(int64(last.CacheLimitBytes)))
	fmt.Fprintf(&b, "  scan amp %s   %d scanned / %d returned cells\n",
		ampStr(last.ScanAmplification), last.CellsScanned, last.CellsReturned)
	fmt.Fprintf(&b, "  queue    %d deep   writeback %d pending   segment read %.2fms\n",
		last.QueueDepth, last.WritebackPending, last.SegmentReadMs)
	fmt.Fprintf(&b, "  pool     %s resident (%d chunks, %d spilled)   pinned %d   evictions %d   faults %d\n",
		byteStr(int64(last.PoolResidentBytes)), last.PoolResidentChunks, last.PoolSpilledChunks,
		last.PoolPinned, last.PoolEvictions, last.PoolFaults)
	fmt.Fprintf(&b, "  traces   %d retained, %s\n\n",
		last.RetainedTraces, byteStr(int64(last.RetainedTraceBytes)))

	spark := func(label string, pick func(obs.Sample) float64) {
		vals := make([]float64, 0, topSparkWidth)
		start := 0
		if len(h.Samples) > topSparkWidth {
			start = len(h.Samples) - topSparkWidth
		}
		for _, s := range h.Samples[start:] {
			vals = append(vals, pick(s))
		}
		fmt.Fprintf(&b, "  %-9s %s\n", label, sparkline(vals))
	}
	spark("qps", func(s obs.Sample) float64 { return s.QPS })
	spark("p95 ms", func(s obs.Sample) float64 { return s.P95Ms })
	spark("hit%", func(s obs.Sample) float64 { return max0(s.CacheHitRatio) })
	spark("scan amp", func(s obs.Sample) float64 { return max0(s.ScanAmplification) })
	return b.String()
}

// max0 clamps the -1 "no observations" sentinel to 0 for plotting.
func max0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func ratioStr(v float64) string {
	if v < 0 {
		return "   --"
	}
	return fmt.Sprintf("%5.1f", v*100) + "%"
}

// ampStr formats the scan-amplification ratio (cells scanned per cell
// returned); -1 means nothing was returned this interval.
func ampStr(v float64) string {
	if v < 0 {
		return "   --"
	}
	return fmt.Sprintf("%5.1fx", v)
}

func byteStr(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// sparkBars are the eight block glyphs a sparkline quantizes into.
var sparkBars = []rune("▁▂▃▄▅▆▇█")

// sparkline plots values scaled to the series maximum; an all-zero (or
// empty) series renders as baseline bars.
func sparkline(vals []float64) string {
	var maxV float64
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if maxV > 0 && v > 0 {
			i = int(v / maxV * float64(len(sparkBars)-1))
			if i >= len(sparkBars) {
				i = len(sparkBars) - 1
			}
		}
		b.WriteRune(sparkBars[i])
	}
	return b.String()
}
