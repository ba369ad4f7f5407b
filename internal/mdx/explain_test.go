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

// TestExplainAnalyzeSplitSpan: a WITH CHANGES clause's split is a
// "split" span under "lower" carrying |R| and the instances it created —
// here two rows, of which only the first makes a new instance (the
// second moves Joe back into FTE/Joe) — and a query without the clause
// records none.
func TestExplainAnalyzeSplitSpan(t *testing.T) {
	ev := NewEvaluator(paperdata.ChunkedWarehouse(nil))
	for _, tc := range []struct {
		query                 string
		changes, newInstances int64
	}{
		{`WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], [Apr]), ([Contractor].[Joe], [Contractor], [FTE], [Jun])} VISUAL
SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS, {[PTE].Children} ON ROWS
FROM Warehouse WHERE ([Location].[NY], [Measures].[Salary])`, 2, 1},
		{explainTestQuery, 0, 0},
	} {
		tr := trace.New(0)
		root := tr.Start(trace.SpanRef{}, "eval")
		ctx := trace.WithSpan(trace.NewContext(context.Background(), tr), root)
		if _, _, err := ev.RunQueryStatsWith(RunContext{Ctx: ctx}, MustParse(tc.query)); err != nil {
			t.Fatal(err)
		}
		root.End()
		spans := tr.Spans()
		var split []trace.Span
		for _, s := range spans {
			if s.Name == "split" {
				split = append(split, s)
			}
		}
		if tc.changes == 0 {
			if len(split) != 0 {
				t.Fatalf("a query without WITH CHANGES recorded %d split spans", len(split))
			}
			continue
		}
		if len(split) != 1 || spans[split[0].Parent].Name != "lower" {
			t.Fatalf("split spans %+v, want one under lower", split)
		}
		changes, _ := split[0].Attr("changes")
		created, _ := split[0].Attr("new_instances")
		if changes != tc.changes || created != tc.newInstances {
			t.Fatalf("split span: changes=%d new_instances=%d, want %d and %d", changes, created, tc.changes, tc.newInstances)
		}
	}
}
