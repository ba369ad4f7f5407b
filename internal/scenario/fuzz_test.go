package scenario_test

import (
	"context"
	"encoding/json"
	"testing"

	"whatifolap/internal/mdx"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/scenario"
)

// fuzzQuery is a dynamic forward perspective query over every leaf of
// the paper cube's varying dimension, so whatever members and windows
// an edit batch left behind, the engine relocates through them.
const fuzzQuery = `
WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS,
       {[Organization].Levels(0).Members} ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Salary])`

// FuzzScenarioApply applies arbitrary edit batches (JSON, as the REST
// edit endpoint decodes them) to a fresh scenario over the paper cube.
// Nothing may panic; a rejected batch leaves the scenario as it was; an
// accepted one leaves a view whose validity sets never overlap and on
// which a perspective query runs.
func FuzzScenarioApply(f *testing.F) {
	for _, seed := range []string{
		`[{"op":"set","cell":{"Organization":"FTE/Lisa","Time":"Jan","Location":"NY","Measures":"Salary"},"value":7}]`,
		`[{"op":"new_member","dim":"Organization","parent":"FTE","name":"Ann"},` +
			`{"op":"set","cell":{"Organization":"FTE/Ann","Time":"Mar","Location":"NY","Measures":"Salary"},"value":5}]`,
		`[{"op":"validity","dim":"Organization","member":"PTE/Joe","from":"Feb","to":"Mar"}]`,
		`[{"op":"validity","dim":"Organization","member":"PTE/Joe","from":"Apr","to":"Feb"}]`,
		`[{"op":"delete","cell":{"Organization":"FTE/Lisa","Time":"Jan","Location":"NY","Measures":"Salary"}}]`,
		`[{"op":"new_member","dim":"Time","parent":"Qtr1","name":"Jan2"}]`,
		// A second instance of a varying member, never given a window:
		// valid everywhere, it overlaps its sibling, so the batch is refused.
		`[{"op":"new_member","dim":"Organization","parent":"PTE","name":"Lisa"}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var edits []scenario.Edit
		if json.Unmarshal(data, &edits) != nil {
			t.Skip()
		}
		s, err := scenario.NewLocal("fuzz", paperdata.ChunkedWarehouse(nil))
		if err != nil {
			t.Fatal(err)
		}
		before := s.Info()
		if _, err := s.Apply(edits); err != nil {
			if after := s.Info(); after != before {
				t.Fatalf("rejected batch changed the scenario: %+v, was %+v", after, before)
			}
			return
		}
		view, _, err := s.View()
		if err != nil {
			t.Fatalf("View after an accepted batch: %v", err)
		}
		for _, b := range view.Bindings() {
			if err := b.Validate(); err != nil {
				t.Fatalf("accepted batch left overlapping validity sets: %v", err)
			}
		}
		q, err := mdx.Parse(fuzzQuery)
		if err != nil {
			t.Fatal(err)
		}
		// An error is an acceptable answer (an edit may have made a name
		// ambiguous); only a panic fails.
		_, _, _ = mdx.NewEvaluator(view).RunQueryStatsWith(mdx.RunContext{Ctx: context.Background()}, q)
	})
}
