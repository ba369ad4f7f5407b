package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"whatifolap/internal/result"
)

// pointerValues is the reference encoding's view of a grid's values: a
// pointer per non-⊥ cell, nil (null) for ⊥.
func pointerValues(g *result.Grid) [][]*float64 {
	values := make([][]*float64, len(g.Values))
	for i, row := range g.Values {
		values[i] = make([]*float64, len(row))
		for j, v := range row {
			if !math.IsNaN(v) {
				values[i][j] = &v
			}
		}
	}
	return values
}

// TestEncodeQueryResponseMatchesMarshal: the hand-written body encoder
// writes exactly the bytes encoding/json writes for the same response,
// on grids at the edges of its float format, its string escaping, its
// null and omitempty rules.
func TestEncodeQueryResponseMatchesMarshal(t *testing.T) {
	rev := int64(0)
	nan := math.NaN()
	grids := map[string]*result.Grid{
		"signed zeros and tiny": {ColLabels: []string{"a", "b", "c", "d"}, RowLabels: []string{"r"},
			Values: [][]float64{{0, math.Copysign(0, -1), 1e-7, -1e-7}}},
		"exponent edges": {ColLabels: []string{"a", "b", "c", "d", "e", "f"}, RowLabels: []string{"r"},
			Values: [][]float64{{1e21, -1e21, 999999999999999999999.0, 1e-6, 123456789.125, 1e300}}},
		"subnormals": {ColLabels: []string{"a", "b", "c"}, RowLabels: []string{"r"},
			Values: [][]float64{{5e-324, math.SmallestNonzeroFloat64 * 3, -2.2250738585072009e-308}}},
		"nulls": {ColLabels: []string{"a", "b"}, RowLabels: []string{"r", "s"},
			Values: [][]float64{{nan, 1}, {2.5, nan}}},
		"no rows":      {ColLabels: []string{"a"}, RowLabels: []string{}, Values: [][]float64{}},
		"nil rows":     {ColLabels: []string{"a"}},
		"no columns":   {ColLabels: []string{}, RowLabels: []string{"r"}, Values: [][]float64{{}}},
		"nil columns":  {RowLabels: []string{"r", "s"}, Values: [][]float64{nil, {}}},
		"an empty row": {ColLabels: []string{"a"}, RowLabels: []string{"r", "s"}, Values: [][]float64{{1}, {}}},
		"escaped labels": {ColLabels: []string{`Q"1"`, `a\b`, "<tag>&", "tab\tnew\nline", "ünï", "\u2028", "bad\xffutf8", "del\x7f"},
			RowLabels: []string{"FTE/Joe"}, Values: [][]float64{{1, 2, 3, 4, 5, 6, 7, 8}}},
		"dimension properties": {ColLabels: []string{"Jan"}, RowLabels: []string{"Dept00/Emp00001", "Dept01/Emp00002"},
			PropNames: []string{"Department", "Org"}, RowProps: [][]string{{"Dept00", ""}, nil},
			Values: [][]float64{{4000}, {nan}}},
	}
	heads := []responseHead{
		{Cube: "workforce", Version: 3},
		{Cube: "w<f>", Version: -1, Scenario: "s1", ScenarioRevision: &rev},
	}
	qs := queryStats{MembersInScope: 8, ChunksRead: 260, CellsRelocated: 498, MergeEdges: 1, MergeGroups: 2}
	for name, g := range grids {
		for _, head := range heads {
			want, err := json.Marshal(queryResponse{
				responseHead: head, Columns: g.ColLabels, Rows: g.RowLabels, PropNames: g.PropNames,
				RowProps: g.RowProps, Values: pointerValues(g), Stats: qs,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := encodeQueryResponse(head, g, qs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s:\n got %s\nwant %s", name, got, want)
			}
		}
	}
}

// TestEncodeQueryResponseRefusesInf: ±Inf is no JSON number; the
// encoder fails with the error encoding/json gives, which the server
// answers 500 with.
func TestEncodeQueryResponseRefusesInf(t *testing.T) {
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		g := &result.Grid{ColLabels: []string{"a"}, RowLabels: []string{"r"}, Values: [][]float64{{inf}}}
		_, want := json.Marshal(queryResponse{Columns: g.ColLabels, Rows: g.RowLabels, Values: pointerValues(g)})
		if _, err := encodeQueryResponse(responseHead{}, g, queryStats{}); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("Inf: error %v, encoding/json's %v", err, want)
		}
	}
}

// TestEncodeQueryResponseAllocs: encoding a 640×12 grid allocates the
// body and nothing per cell.
func TestEncodeQueryResponseAllocs(t *testing.T) {
	g := &result.Grid{ColLabels: make([]string, 12), RowLabels: make([]string, 640), Values: make([][]float64, 640)}
	for i := range g.Values {
		g.Values[i] = make([]float64, 12)
		for j := range g.Values[i] {
			g.Values[i][j] = float64(4000+i) * (1 + 0.02*float64(j))
		}
	}
	encodeQueryResponse(responseHead{Cube: "workforce"}, g, queryStats{}) // warm the pool
	if n := testing.AllocsPerRun(20, func() { encodeQueryResponse(responseHead{Cube: "workforce"}, g, queryStats{}) }); n > 2 {
		t.Errorf("encoding a 640×12 grid allocates %.0f times, want at most 2", n)
	}
}
