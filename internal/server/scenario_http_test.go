package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"whatifolap/internal/workload"
)

// newWorkforceServer registers the tiny workforce cube as "wf" and
// returns the server plus the generated dataset.
func newWorkforceServer(t testing.TB, cfg Config) (*Server, *workload.Workforce) {
	t.Helper()
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if err := cat.Register("wf", w.Cube); err != nil {
		t.Fatal(err)
	}
	s := New(cat, cfg)
	t.Cleanup(s.Close)
	return s, w
}

// do issues one JSON request against the handler.
func do(t testing.TB, h http.Handler, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

// decode unmarshals a response body, failing on unexpected status.
func decode(t testing.TB, rec *httptest.ResponseRecorder, wantStatus int, v interface{}) {
	t.Helper()
	if rec.Code != wantStatus {
		t.Fatalf("status = %d, want %d: %s", rec.Code, wantStatus, rec.Body)
	}
	if v != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatalf("bad response body %q: %v", rec.Body, err)
		}
	}
}

// scenarioInfoJSON mirrors scenario.Info's wire shape.
type scenarioInfoJSON struct {
	ID               string `json:"id"`
	Name             string `json:"name"`
	Cube             string `json:"cube"`
	BaseVersion      int64  `json:"base_version"`
	Parent           string `json:"parent"`
	Revision         int64  `json:"revision"`
	Layers           int    `json:"layers"`
	CellsOverridden  int    `json:"cells_overridden"`
	NewMembers       int    `json:"new_members"`
	CommittedVersion int64  `json:"committed_version"`
}

type scenarioGridJSON struct {
	Cube             string       `json:"cube"`
	Version          int64        `json:"version"`
	Scenario         string       `json:"scenario"`
	ScenarioRevision int64        `json:"scenario_revision"`
	Columns          []string     `json:"columns"`
	Rows             []string     `json:"rows"`
	Values           [][]*float64 `json:"values"`
}

type diffJSON struct {
	A     string `json:"a"`
	B     string `json:"b"`
	Count int    `json:"count"`
	Cells []struct {
		Cell []string `json:"cell"`
		A    *float64 `json:"a"`
		B    *float64 `json:"b"`
	} `json:"cells"`
}

// rollupQuery asks for one employee's AllAccounts total in January.
const rollupQuery = `
SELECT {[Account].[AllAccounts]} ON COLUMNS, {[Emp00010]} ON ROWS
FROM [App].[Db]
WHERE ([Period].[Jan], [Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`

// cellValue extracts the single data cell of a 1×1 response.
func cellValue(t testing.TB, g scenarioGridJSON) float64 {
	t.Helper()
	if len(g.Values) != 1 || len(g.Values[0]) != 1 || g.Values[0][0] == nil {
		t.Fatalf("expected a 1×1 non-null grid, got %+v", g.Values)
	}
	return *g.Values[0][0]
}

// TestScenarioRESTEndToEnd is the acceptance flow: create a scenario
// on the workforce cube, introduce a hypothetical member, edit cells
// under it, fork, diff (exactly the divergent cells), commit, and
// query the committed version through the plain path.
func TestScenarioRESTEndToEnd(t *testing.T) {
	s, _ := newWorkforceServer(t, Config{Workers: 2, CacheBytes: 1 << 20})
	h := s.Handler()

	// Create.
	var created scenarioInfoJSON
	decode(t, do(t, h, "POST", "/scenarios", map[string]string{"name": "hiring-plan"}), http.StatusCreated, &created)
	if created.ID == "" || created.Cube != "wf" || created.BaseVersion != 1 {
		t.Fatalf("created = %+v", created)
	}

	// Baseline answer on the untouched scenario equals the plain path.
	var base scenarioGridJSON
	decode(t, do(t, h, "POST", "/scenarios/"+created.ID+"/query", queryRequest{Query: rollupQuery}), http.StatusOK, &base)
	baseTotal := cellValue(t, base)

	// Introduce a hypothetical account and edit cells under it.
	var edited scenarioInfoJSON
	decode(t, do(t, h, "POST", "/scenarios/"+created.ID+"/edit", map[string]interface{}{
		"edits": []map[string]interface{}{
			{"op": "new_member", "dim": "Account", "parent": "AllAccounts", "name": "Bonus"},
			{"op": "set", "cell": map[string]string{"Department": "Emp00010", "Period": "Jan", "Account": "Bonus"}, "value": 500},
			{"op": "set", "cell": map[string]string{"Department": "Emp00011", "Period": "Feb", "Account": "Bonus"}, "value": 750},
		},
	}), http.StatusOK, &edited)
	if edited.Revision != 1 || edited.NewMembers != 1 || edited.CellsOverridden != 2 {
		t.Fatalf("after edit: %+v", edited)
	}

	var after scenarioGridJSON
	decode(t, do(t, h, "POST", "/scenarios/"+created.ID+"/query", queryRequest{Query: rollupQuery}), http.StatusOK, &after)
	if got, want := cellValue(t, after), baseTotal+500; got != want {
		t.Fatalf("rollup with hypothetical member = %v, want %v", got, want)
	}

	// Fork, then diverge the fork by one cell.
	var fork scenarioInfoJSON
	decode(t, do(t, h, "POST", "/scenarios/"+created.ID+"/fork", map[string]string{"name": "hiring-plan-b"}), http.StatusCreated, &fork)
	if fork.Parent != created.ID || fork.Layers != 1 {
		t.Fatalf("fork = %+v", fork)
	}
	var empty diffJSON
	decode(t, do(t, h, "GET", "/scenarios/"+created.ID+"/diff?against="+fork.ID, nil), http.StatusOK, &empty)
	if empty.Count != 0 {
		t.Fatalf("pre-divergence diff = %+v, want empty", empty)
	}
	decode(t, do(t, h, "POST", "/scenarios/"+fork.ID+"/edit", map[string]interface{}{
		"edits": []map[string]interface{}{
			{"op": "set", "cell": map[string]string{"Department": "Emp00010", "Period": "Jan", "Account": "Bonus"}, "value": 900},
		},
	}), http.StatusOK, nil)

	var d diffJSON
	decode(t, do(t, h, "GET", "/scenarios/"+created.ID+"/diff?against="+fork.ID, nil), http.StatusOK, &d)
	if d.Count != 1 || len(d.Cells) != 1 {
		t.Fatalf("diff = %+v, want exactly the divergent cell", d)
	}
	if d.Cells[0].A == nil || *d.Cells[0].A != 500 || d.Cells[0].B == nil || *d.Cells[0].B != 900 {
		t.Fatalf("diff cell = %+v, want A=500 B=900", d.Cells[0])
	}
	joined := strings.Join(d.Cells[0].Cell, "|")
	if !strings.Contains(joined, "AllAccounts/Bonus") || !strings.Contains(joined, "Emp00010") {
		t.Fatalf("diff cell paths = %v", d.Cells[0].Cell)
	}

	// List shows both workspaces.
	var list struct {
		Scenarios []scenarioInfoJSON `json:"scenarios"`
	}
	decode(t, do(t, h, "GET", "/scenarios", nil), http.StatusOK, &list)
	if len(list.Scenarios) != 2 {
		t.Fatalf("list = %+v, want 2 scenarios", list.Scenarios)
	}

	// Commit the parent: the catalog gains version 2 with the
	// hypothetical member's cells baked in.
	var committed struct {
		Scenario string `json:"scenario"`
		Cube     string `json:"cube"`
		Version  int64  `json:"version"`
	}
	decode(t, do(t, h, "POST", "/scenarios/"+created.ID+"/commit", nil), http.StatusOK, &committed)
	if committed.Version != 2 {
		t.Fatalf("commit = %+v, want version 2", committed)
	}
	rec := postQuery(t, h, queryRequest{Cube: "wf", Query: rollupQuery})
	var plain scenarioGridJSON
	decode(t, rec, http.StatusOK, &plain)
	if plain.Version != 2 {
		t.Fatalf("plain query version = %d, want 2 after commit", plain.Version)
	}
	if got, want := cellValue(t, plain), baseTotal+500; got != want {
		t.Fatalf("committed rollup = %v, want %v", got, want)
	}

	// The fork still diffs against its (pre-commit) base; committing the
	// parent again conflicts, since the cube moved to version 2.
	decode(t, do(t, h, "POST", "/scenarios/"+fork.ID+"/commit", nil), http.StatusConflict, nil)

	// Discard the fork.
	decode(t, do(t, h, "DELETE", "/scenarios/"+fork.ID, nil), http.StatusOK, nil)
	decode(t, do(t, h, "POST", "/scenarios/"+fork.ID+"/query", queryRequest{Query: rollupQuery}), http.StatusNotFound, nil)
}

// TestScenarioCacheStalenessImpossible is the cache regression test:
// with caching on, an edit must make the previously cached answer
// unreachable — the next query recomputes and reflects the edit.
func TestScenarioCacheStalenessImpossible(t *testing.T) {
	s, _ := newWorkforceServer(t, Config{Workers: 2, CacheBytes: 1 << 20})
	h := s.Handler()

	var sc scenarioInfoJSON
	decode(t, do(t, h, "POST", "/scenarios", map[string]string{}), http.StatusCreated, &sc)

	// Miss, then hit.
	rec := do(t, h, "POST", "/scenarios/"+sc.ID+"/query", queryRequest{Query: rollupQuery})
	var g1 scenarioGridJSON
	decode(t, rec, http.StatusOK, &g1)
	if got := rec.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("first query X-Cache = %q, want MISS", got)
	}
	rec = do(t, h, "POST", "/scenarios/"+sc.ID+"/query", queryRequest{Query: rollupQuery})
	if got := rec.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("second query X-Cache = %q, want HIT", got)
	}

	// Edit a cell the query covers.
	decode(t, do(t, h, "POST", "/scenarios/"+sc.ID+"/edit", map[string]interface{}{
		"edits": []map[string]interface{}{
			{"op": "set", "cell": map[string]string{"Department": "Emp00010", "Period": "Jan", "Account": "Acct000"}, "value": 99999},
		},
	}), http.StatusOK, nil)
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("cache entries after scenario edit = %d, want 0 (invalidated)", n)
	}

	rec = do(t, h, "POST", "/scenarios/"+sc.ID+"/query", queryRequest{Query: rollupQuery})
	var g2 scenarioGridJSON
	decode(t, rec, http.StatusOK, &g2)
	if got := rec.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("post-edit query X-Cache = %q, want MISS (stale hit!)", got)
	}
	if cellValue(t, g2) == cellValue(t, g1) {
		t.Fatal("post-edit answer identical to pre-edit answer: stale result served")
	}
	if g2.ScenarioRevision != 1 {
		t.Fatalf("post-edit revision = %d, want 1", g2.ScenarioRevision)
	}

	// A plain cube query is unaffected by scenario edits and caches
	// under its own key.
	rec = postQuery(t, h, queryRequest{Cube: "wf", Query: rollupQuery})
	var plain scenarioGridJSON
	decode(t, rec, http.StatusOK, &plain)
	if cellValue(t, plain) != cellValue(t, g1) {
		t.Fatal("plain cube query drifted after scenario edit")
	}
}

// TestScenarioObservability checks the scenario id lands in the
// slow-query log, the metrics snapshot, and the Prometheus exposition —
// and stays empty for plain-path queries.
func TestScenarioObservability(t *testing.T) {
	// Threshold 0.000001ms: everything is slow.
	s, w := newWorkforceServer(t, Config{Workers: 2, SlowQueryMs: 0.000001})
	h := s.Handler()

	var sc scenarioInfoJSON
	decode(t, do(t, h, "POST", "/scenarios", map[string]string{"name": "obs"}), http.StatusCreated, &sc)
	decode(t, do(t, h, "POST", "/scenarios/"+sc.ID+"/edit", map[string]interface{}{
		"edits": []map[string]interface{}{
			{"op": "set", "cell": map[string]string{"Department": "Emp00012", "Period": "Mar", "Account": "Acct000"}, "value": 1},
		},
	}), http.StatusOK, nil)

	dept := w.Cube.DimByName(workload.DimDepartment)
	b := w.Cube.BindingFor(workload.DimDepartment)
	inst := dept.Path(b.InstanceAt(w.Changing[0], 0))
	persp := fmt.Sprintf(`
WITH PERSPECTIVE {(Jan), (Apr)} FOR Department DYNAMIC FORWARD
SELECT {[Account].Levels(0).Members} ON COLUMNS, {[%s]} ON ROWS
FROM [App].[Db]
WHERE ([Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`, inst)
	decode(t, do(t, h, "POST", "/scenarios/"+sc.ID+"/query", queryRequest{Query: persp}), http.StatusOK, nil)
	if rec := postQuery(t, h, queryRequest{Cube: "wf", Query: persp}); rec.Code != http.StatusOK {
		t.Fatalf("plain query failed: %s", rec.Body)
	}

	// Slowlog: the scenario-path record carries the id, the plain one
	// does not; the scenario record's trace carries the layer attrs.
	records := s.slowQueries()
	if len(records) < 2 {
		t.Fatalf("slowlog records = %d, want ≥ 2", len(records))
	}
	var sawScenario, sawPlain bool
	for _, r := range records {
		if r.Scenario == sc.ID {
			sawScenario = true
			if !strings.Contains(r.Trace, "scenario_layers=1") || !strings.Contains(r.Trace, "cells_overridden=1") {
				t.Fatalf("scenario trace missing layer attrs:\n%s", r.Trace)
			}
		}
		if r.Scenario == "" {
			sawPlain = true
		}
	}
	if !sawScenario || !sawPlain {
		t.Fatalf("slowlog attribution: scenario=%v plain=%v", sawScenario, sawPlain)
	}

	// Metrics snapshot and Prometheus exposition.
	m := s.Metrics().Snapshot()
	st, ok := m.ByScenario[sc.ID]
	if !ok || st.Queries != 1 {
		t.Fatalf("by_scenario = %+v, want 1 query for %s", m.ByScenario, sc.ID)
	}
	var prom strings.Builder
	s.Metrics().WriteProm(&prom)
	text := prom.String()
	if !strings.Contains(text, fmt.Sprintf("whatif_scenario_queries_total{scenario=%q} 1", sc.ID)) {
		t.Fatalf("prom exposition missing scenario counter:\n%s", text)
	}
	if !strings.Contains(text, "whatif_scenario_latency_ms_total{scenario=") {
		t.Fatal("prom exposition missing scenario latency counter")
	}
}

// TestScenarioDeleteForgetsMetrics: deleting a workspace drops its
// attribution, so a server whose analysts create and discard scenarios
// all day does not grow one by_scenario entry per scenario ever seen.
func TestScenarioDeleteForgetsMetrics(t *testing.T) {
	s, _ := newWorkforceServer(t, Config{})
	h := s.Handler()

	var keep, gone scenarioInfoJSON
	decode(t, do(t, h, "POST", "/scenarios", map[string]string{"name": "keep"}), http.StatusCreated, &keep)
	decode(t, do(t, h, "POST", "/scenarios", map[string]string{"name": "gone"}), http.StatusCreated, &gone)
	for _, id := range []string{keep.ID, gone.ID} {
		decode(t, do(t, h, "POST", "/scenarios/"+id+"/query", queryRequest{Query: rollupQuery}), http.StatusOK, nil)
	}
	decode(t, do(t, h, "DELETE", "/scenarios/"+gone.ID, nil), http.StatusOK, nil)

	by := s.Metrics().Snapshot().ByScenario
	if _, ok := by[gone.ID]; ok {
		t.Fatalf("by_scenario still names deleted %s: %+v", gone.ID, by)
	}
	if by[keep.ID].Queries != 1 {
		t.Fatalf("by_scenario = %+v, want 1 query for live %s", by, keep.ID)
	}
	var prom strings.Builder
	s.Metrics().WriteProm(&prom)
	if label := fmt.Sprintf("scenario=%q", gone.ID); strings.Contains(prom.String(), label) {
		t.Fatalf("prom exposition still carries %s:\n%s", label, prom.String())
	}
}
