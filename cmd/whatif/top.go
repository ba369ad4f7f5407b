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
	"math"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

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

// renderTop formats one dashboard frame from a history snapshot: a row
// per server.TopRows entry, each history key as its label and the
// newest sample's value, then a sparkline per plotted key. Pure: no
// clock reads, no IO — now is the caller's.
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

	rows := server.TopRows()
	for _, row := range rows {
		cols := make([]string, len(row.Keys))
		for i, k := range row.Keys {
			v, _ := last.Get(k)
			cols[i] = topLabel(row.Name, k) + " " + topValue(k, v)
		}
		fmt.Fprintf(&b, "  %-9s %s\n", row.Name, strings.Join(cols, "   "))
	}
	b.WriteString("\n")

	start := max(0, len(h.Samples)-topSparkWidth)
	for _, row := range rows {
		for _, k := range row.Spark {
			vals := make([]float64, 0, topSparkWidth)
			for _, s := range h.Samples[start:] {
				v, _ := s.Get(k)
				vals = append(vals, max(v, 0)) // -1 sentinels plot as baseline
			}
			fmt.Fprintf(&b, "  %-18s %s\n", k, sparkline(vals))
		}
	}
	return b.String()
}

// topLabel is a key's label in its row: the row's name and the unit the
// value carries trimmed off (pool_resident_bytes in row pool: resident).
func topLabel(row, key string) string {
	return strings.TrimSuffix(strings.TrimSuffix(strings.TrimPrefix(key, row+"_"), "_bytes"), "_ms")
}

// topValue formats a value by its key's unit suffix. A negative value is
// a ratio's "nothing this interval" sentinel and shows as "--".
func topValue(key string, v float64) string {
	switch {
	case v < 0:
		return "--"
	case strings.HasSuffix(key, "_bytes"):
		return byteStr(int64(v))
	case strings.HasSuffix(key, "_ratio"):
		return fmt.Sprintf("%.1f%%", v*100)
	case strings.HasSuffix(key, "_amplification"):
		return fmt.Sprintf("%.1fx", v)
	case strings.HasSuffix(key, "_ms"):
		return fmt.Sprintf("%.2fms", v)
	case v == math.Trunc(v):
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return fmt.Sprintf("%.1f", v)
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
