package core

import (
	"testing"

	"whatifolap/internal/perspective"
)

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
