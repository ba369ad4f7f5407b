package mdx

import (
	"strings"
	"testing"

	"whatifolap/internal/core"
	"whatifolap/internal/cube"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/scenario"
)

// lowerCubes builds the four kinds of cube a query can meet: a map
// store, a chunk store, a scenario chain the engine can run over, and a
// chain carrying a wider layer (a hypothetical member), which cannot.
func lowerCubes(t *testing.T) map[string]*cube.Cube {
	t.Helper()
	view := func(edits ...scenario.Edit) *cube.Cube {
		t.Helper()
		s, err := scenario.NewLocal("lower", paperdata.ChunkedWarehouse(nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Apply(edits); err != nil {
			t.Fatal(err)
		}
		v, _, err := s.View()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cell := map[string]string{"Organization": "PTE/Tom", "Time": "Jan", "Location": "NY", "Measures": "Salary"}
	return map[string]*cube.Cube{
		"memstore": paperdata.Warehouse(),
		"chunked":  paperdata.ChunkedWarehouse(nil),
		"chain":    view(scenario.Edit{Op: scenario.OpSet, Cell: cell, Value: 11}),
		"wide": view(
			scenario.Edit{Op: scenario.OpNewMember, Dim: "Location", Parent: "East", Name: "CT"},
			scenario.Edit{Op: scenario.OpSet, Cell: map[string]string{"Organization": "PTE/Tom", "Time": "Jan", "Location": "CT", "Measures": "Salary"}, Value: 7},
		),
	}
}

// engineStorage says which of lowerCubes the perspective-cube engine
// can run over.
var engineStorage = map[string]bool{"memstore": false, "chunked": true, "chain": true, "wide": false}

const lowerSelect = `
SELECT {[Time].[Qtr1], [Time].[Qtr2]} ON COLUMNS, {[PTE].Children} ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Salary])`

// TestLoweringIsWhatRuns: Explain and RunQueryStatsWith consume one
// lowering, so the path Explain prints must be the path the run took —
// over every kind of cube and every clause shape — and a query that
// cannot be lowered must fail the same way from both.
func TestLoweringIsWhatRuns(t *testing.T) {
	clauses := []struct {
		name, with string
		// engine: a single what-if clause, which engine-capable storage
		// hands to the perspective-cube engine.
		engine bool
	}{
		{"plain", "", false},
		{"perspective", "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL", true},
		{"changes", "WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], [Apr])} VISUAL", true},
		{"transfer", "WITH TRANSFER 0.5 FROM [NY] TO [MA] FOR ([Measures].[Salary])", false},
		{"two-clauses", "WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], [Apr])} VISUAL\nWITH PERSPECTIVE {(Feb)} FOR Organization STATIC VISUAL", false},
	}
	for cubeName, c := range lowerCubes(t) {
		ev := NewEvaluator(c)
		for _, cl := range clauses {
			t.Run(cubeName+"/"+cl.name, func(t *testing.T) {
				q := MustParse(cl.with + lowerSelect)
				text, err := ev.Explain(q)
				if err != nil {
					t.Fatalf("Explain: %v", err)
				}
				g, stats, err := ev.RunQueryStatsWith(RunContext{}, q)
				if err != nil {
					t.Fatalf("RunQueryStatsWith: %v", err)
				}
				if len(g.Values) == 0 {
					t.Fatal("empty grid")
				}
				wantEngine := cl.engine && engineStorage[cubeName]
				if got := strings.HasPrefix(text, "path: perspective-cube engine"); got != wantEngine {
					t.Fatalf("Explain chose engine=%v, want %v:\n%s", got, wantEngine, text)
				}
				if wantEngine {
					if stats.ChunksRead == 0 || stats.MergeGroups == 0 {
						t.Fatalf("Explain printed the engine path but the run left no engine stats: %+v", stats)
					}
					return
				}
				if !strings.HasPrefix(text, "path: algebra\n") {
					t.Fatalf("Explain printed neither path:\n%s", text)
				}
				stats.ProjectMs = 0
				if stats != (core.Stats{}) {
					t.Fatalf("Explain printed the algebra path but the run reports engine work: %+v", stats)
				}
			})
		}
	}
}

func TestLoweringErrorsMatch(t *testing.T) {
	bad := map[string]string{
		"unknown member":            "WITH PERSPECTIVE {(Smarch)} FOR Organization STATIC" + lowerSelect,
		"unbound varying dimension": "WITH PERSPECTIVE {(Feb)} FOR Location STATIC" + lowerSelect,
		// The parser refuses an empty relation; an AST built by hand (the
		// rows are stripped below) must still fail cleanly.
		"empty change relation":   "WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], [Apr])} VISUAL" + lowerSelect,
		"unknown change parent":   "WITH CHANGES {([Lisa], [Nope], [PTE], [Apr])}" + lowerSelect,
		"unknown transfer member": "WITH TRANSFER 0.1 FROM [Nope] TO [MA]" + lowerSelect,
	}
	cubes := lowerCubes(t)
	// The engine paths resolve the axes' scope members while lowering;
	// the algebra path meets the axes only when it projects.
	for _, cubeName := range []string{"chunked", "chain"} {
		src := "WITH PERSPECTIVE {(Feb)} FOR Organization STATIC SELECT {[Nobody]} ON COLUMNS FROM W"
		if _, err := NewEvaluator(cubes[cubeName]).Explain(MustParse(src)); err == nil {
			t.Fatalf("%s: Explain accepted an unknown scope member", cubeName)
		}
	}
	for cubeName, c := range cubes {
		ev := NewEvaluator(c)
		for name, src := range bad {
			t.Run(cubeName+"/"+name, func(t *testing.T) {
				q := MustParse(src)
				if name == "empty change relation" {
					q.Changes.Rows = nil
				}
				_, explainErr := ev.Explain(q)
				_, _, runErr := ev.RunQueryStatsWith(RunContext{}, q)
				if explainErr == nil && runErr == nil && name == "empty change relation" && !engineStorage[cubeName] {
					return // the algebra's split over no rows is the identity
				}
				if explainErr == nil || runErr == nil {
					t.Fatalf("Explain err = %v, run err = %v; both must fail", explainErr, runErr)
				}
				if explainErr.Error() != runErr.Error() {
					t.Fatalf("one lowering, two errors:\n explain: %v\n run:     %v", explainErr, runErr)
				}
			})
		}
	}
}
