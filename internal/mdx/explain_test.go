package mdx

import (
	"context"
	"math"
	"strings"
	"testing"

	"whatifolap/internal/paperdata"
	"whatifolap/internal/trace"
)

const explainTestQuery = `
WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS,
       {Descendants([Organization], 1, SELF_AND_AFTER)} ON ROWS
FROM Warehouse
WHERE ([Location].[NY], [Measures].[Salary])`

func TestParseExplainPrefix(t *testing.T) {
	q, err := Parse("EXPLAIN " + explainTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Explain || q.Analyze {
		t.Fatalf("EXPLAIN: Explain=%v Analyze=%v, want true/false", q.Explain, q.Analyze)
	}
	q, err = Parse("explain analyze " + explainTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Explain || !q.Analyze {
		t.Fatalf("EXPLAIN ANALYZE: Explain=%v Analyze=%v, want true/true", q.Explain, q.Analyze)
	}
	q, err = Parse(explainTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if q.Explain || q.Analyze {
		t.Fatal("plain query should not be marked EXPLAIN")
	}
	// The keywords normalize like any other, so cache keys stay sound.
	norm, err := Normalize("explain analyze SELECT [Time].Members ON COLUMNS FROM W")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(norm, "EXPLAIN ANALYZE ") {
		t.Fatalf("normalize did not fold the prefix: %q", norm)
	}
}

func TestExplainAnalyzeOutput(t *testing.T) {
	ev := NewEvaluator(paperdata.ChunkedWarehouse(nil))
	q := MustParse("EXPLAIN ANALYZE " + explainTestQuery)
	text, g, stats, err := ev.ExplainAnalyze(RunContext{}, q)
	if err != nil {
		t.Fatal(err)
	}
	if g == nil || g.NumRows() == 0 {
		t.Fatal("EXPLAIN ANALYZE did not execute the query")
	}
	if stats.ChunksRead == 0 {
		t.Fatalf("stats not collected: %+v", stats)
	}
	for _, want := range []string{"eval", "plan", "scan", "project", "totals:", "stats:", "chunks_read", "slabs=", "slabs_skipped="} {
		if !strings.Contains(text, want) {
			t.Fatalf("analysis missing %q:\n%s", want, text)
		}
	}
}

// TestExplainAnalyzeTotalsMatchStats pins the contract between the two
// timing systems: summing span durations by stage name must agree with
// the engine's core.Stats per-stage wall times within 5% (plus a small
// absolute floor, since sub-millisecond stages on the tiny fixture are
// dominated by clock resolution, not drift).
func TestExplainAnalyzeTotalsMatchStats(t *testing.T) {
	ev := NewEvaluator(paperdata.ChunkedWarehouse(nil))
	q := MustParse(explainTestQuery)

	tr := trace.New(0)
	root := tr.Start(trace.SpanRef{}, "eval")
	ctx := trace.WithSpan(trace.NewContext(context.Background(), tr), root)
	_, stats, err := ev.RunQueryStatsWith(RunContext{Ctx: ctx}, q)
	root.End()
	if err != nil {
		t.Fatal(err)
	}

	check := func(stage string, statMs float64) {
		spanMs := tr.StageMs(stage)
		tol := 0.05 * math.Max(spanMs, statMs)
		if tol < 0.5 { // clock-resolution floor for sub-ms stages
			tol = 0.5
		}
		if math.Abs(spanMs-statMs) > tol {
			t.Errorf("stage %s: trace %.3fms vs stats %.3fms exceeds 5%% (tol %.3fms)",
				stage, spanMs, statMs, tol)
		}
	}
	check("plan", stats.PlanMs)
	check("scan", stats.ScanMs)
	check("project", stats.ProjectMs)

	// The one scan span carries the scan's counters.
	for _, s := range tr.Spans() {
		if s.Name != "scan" {
			continue
		}
		chunks, _ := s.Attr("chunks_read")
		slabs, _ := s.Attr("slabs")
		if chunks != int64(stats.ChunksRead) || slabs == 0 {
			t.Fatalf("scan span: %d chunk reads and %d slabs, stats say %d chunk reads", chunks, slabs, stats.ChunksRead)
		}
		return
	}
	t.Fatal("no scan span recorded")
}
