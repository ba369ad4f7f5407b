package core

import (
	"errors"
	"testing"

	"whatifolap/internal/algebra"
	"whatifolap/internal/bitset"
	"whatifolap/internal/dimension"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
)

// TestProjectOffFootprintFails: a view relocated under a footprint holds
// no scoped cell off it, so the compiled pass refuses a grid naming a
// leaf the footprint left out instead of folding an overlay that reads ⊥
// there. On the footprint it answers what algebra.CellValue does.
func TestProjectOffFootprintFails(t *testing.T) {
	e := newEngine(t)
	c := e.base
	org, loc, tim, meas := c.Dim(0), c.Dim(1), c.Dim(2), c.Dim(3)
	fp := make(Footprint, c.NumDims())
	fp[2] = bitset.New(tim.NumLeaves())
	fp[2].Add(paperdata.Apr)
	v, err := e.ExecPerspective(PerspectiveQuery{
		Members: []string{"Joe"}, Perspectives: []int{paperdata.Feb, paperdata.Apr},
		Sem: perspective.Forward, Mode: perspective.Visual, Footprint: fp,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid := func(month int) Grid {
		return Grid{
			Rows:   []Tuple{{{Dim: 0, Member: org.MustLookup("PTE")}}},
			Cols:   []Tuple{{{Dim: 2, Member: tim.Leaf(month).ID}}},
			Slicer: Tuple{{Dim: 1, Member: loc.MustLookup("NY")}, {Dim: 3, Member: meas.MustLookup("Salary")}},
		}
	}
	out := [][]float64{{0}}
	ps, err := v.Project(ExecContext{}, grid(paperdata.Apr), out)
	if err != nil || ps.Compiled != 1 || ps.Fallback != 0 {
		t.Fatalf("on the footprint: %+v, %v", ps, err)
	}
	ids := []dimension.MemberID{org.MustLookup("PTE"), loc.MustLookup("NY"), tim.Leaf(paperdata.Apr).ID, meas.MustLookup("Salary")}
	if want, _ := algebra.CellValue(v.input, v.result, ids, perspective.Visual); out[0][0] != want {
		t.Fatalf("PTE in Apr = %v, want %v", out[0][0], want)
	}
	if _, err := v.Project(ExecContext{}, grid(paperdata.Mar), out); !errors.Is(err, errOffFootprint) {
		t.Fatalf("a grid off the footprint: err = %v, want errOffFootprint", err)
	}
}

// TestProjectAssembleAllocs pins the view assembly every engine query
// runs: the result cube shares the input's validated bindings and its
// name index, so assembling it re-checks no validity set and allocates
// a view and a cube, whatever the bindings hold.
func TestProjectAssembleAllocs(t *testing.T) {
	e := newEngine(t)
	vs := &viewStore{base: e.readStore(), vi: e.vi}
	if allocs := testing.AllocsPerRun(100, func() { e.assemble(vs, nil, nil, perspective.Visual) }); allocs > 2 {
		t.Fatalf("assemble allocates %.0f times, want at most 2", allocs)
	}
}
