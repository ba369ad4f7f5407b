package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/workload"
)

// sortedLeafTable is the leaf table as decoders compiled it before the
// dimension index: every leaf under every source member, found walking
// the member's subtree, then sorted by (ordinal, key). It is the oracle
// of cover, which reads the leaves off the index's ranges in order.
func sortedLeafTable(k *decoder, d int) []leafEntry {
	dim := k.src.dims[d]
	var walk func(id dimension.MemberID, fn func(o int))
	walk = func(id dimension.MemberID, fn func(o int)) {
		m := dim.Member(id)
		if m.LeafOrdinal >= 0 {
			fn(m.LeafOrdinal)
			return
		}
		for _, ch := range m.Children {
			walk(ch, fn)
		}
	}
	var tab []leafEntry
	slot := 0
	k.src.members[d].all(func(m dimension.MemberID) bool {
		walk(m, func(o int) {
			if k.geomOrdinal(d, o) >= 0 {
				tab = append(tab, leafEntry{ord: int32(o), off: int32(o % k.edge[d] * k.stride[d]), key: slot * k.src.radix[d]})
			}
		})
		slot++
		return true
	})
	slices.SortFunc(tab, func(a, b leafEntry) int { return cmp.Or(cmp.Compare(a.ord, b.ord), cmp.Compare(a.key, b.key)) })
	return tab
}

// mixedGrid is a random grid over schema whose rows, columns and slicer
// name members of every level — leaves, inner members, roots — so that
// a leaf feeds several of one dimension's members at once.
func mixedGrid(rng *rand.Rand, schema *cube.Cube) Grid {
	role := make([]int, schema.NumDims()) // 0 rows, 1 columns, 2 slicer, 3 no axis
	for d := range role {
		role[d] = rng.Intn(4)
	}
	tuple := func(r int) Tuple {
		var tp Tuple
		for d, rd := range role {
			if rd == r {
				tp = append(tp, Coord{Dim: d, Member: dimension.MemberID(rng.Intn(schema.Dim(d).NumMembers()))})
			}
		}
		return tp
	}
	g := Grid{Slicer: tuple(2)}
	for i := 1 + rng.Intn(12); i > 0; i-- {
		g.Rows = append(g.Rows, tuple(0))
	}
	for j := 1 + rng.Intn(6); j > 0; j-- {
		g.Cols = append(g.Cols, tuple(1))
	}
	return g
}

// randomChunking cuts each extent into chunks of a random edge.
func randomChunking(rng *rand.Rand, extents []int) *chunk.Geometry {
	cd := make([]int, len(extents))
	for d, n := range extents {
		cd[d] = 1 + rng.Intn(n)
	}
	return chunk.MustGeometry(extents, cd)
}

// TestCoverMatchesSortedLeafTables: the leaf tables cover builds from
// the dimension index equal the sorted tables of the subtree walk, entry
// for entry, on random grids that mix levels on rows, columns and
// slicer — over the paper cube, the tiny workforce cube, the retail
// cube, and a workforce Department extended with a hypothetical
// instance of an existing employee (a positive scenario's split) and a
// new member, whose ordinals lie past the base extent. Each case is
// decoded over a geometry of the base extents, which drops those
// ordinals, and one of the extended extents, which keeps them; a base
// decoder of the varying dimension skips scoped rows. The chunk rows,
// the chunk filters and a destination's entries (leafEntries) agree
// with the oracle table too.
func TestCoverMatchesSortedLeafTables(t *testing.T) {
	wf, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := workload.NewRetailByTime(workload.ConfigRetail())
	if err != nil {
		t.Fatal(err)
	}
	dept := wf.Cube.DimByName(workload.DimDepartment)
	ext := dept.Extend()
	first := dept.Member(dept.Member(dept.Root()).Children[0])
	moved := dept.Member(dept.Member(dept.Root()).Children[1]).Children[0]
	for _, add := range [][2]string{{dept.Path(first.ID), dept.Member(moved).Name}, {dept.Path(first.ID), "EmpHypo"}, {"", "Floater"}} {
		if _, err := ext.AddHypothetical(add[0], add[1]); err != nil {
			t.Fatal(err)
		}
	}
	extDims := slices.Clone(wf.Cube.Dims())
	extDims[wf.Cube.DimIndex(workload.DimDepartment)] = ext
	cases := []struct {
		name        string
		input, dims []*dimension.Dimension
		vi          int
	}{
		{"paper", paperdata.Warehouse().Dims(), paperdata.Warehouse().Dims(), 0},
		{"workforce", wf.Cube.Dims(), wf.Cube.Dims(), 0},
		{"retail", rt.Cube.Dims(), rt.Cube.Dims(), 0},
		{"extended", wf.Cube.Dims(), extDims, 0},
	}
	rng := rand.New(rand.NewSource(49))
	for _, tc := range cases {
		input, schema := cube.New(tc.input...), cube.New(tc.dims...)
		base, wide := make([]int, len(tc.dims)), make([]int, len(tc.dims))
		for d := range tc.dims {
			base[d], wide[d] = tc.input[d].NumLeaves(), tc.dims[d].NumLeaves()
		}
		tables := 0
		for i := 0; i < 150; i++ {
			g := mixedGrid(rng, schema)
			p := compileProjection(input, schema, perspective.Visual, g)
			if p.view == nil {
				continue
			}
			for _, extents := range [][]int{base, wide} {
				geom := randomChunking(rng, extents)
				k := newDecoder(p, p.view, geom)
				if rng.Intn(2) == 0 {
					k.vi, k.scoped = tc.vi, make([]bool, wide[tc.vi])
					for o := range k.scoped {
						k.scoped[o] = rng.Intn(3) == 0
					}
				}
				label := fmt.Sprintf("%s case %d: chunks %v grid %v", tc.name, i, geom.ChunkDims, g)
				covered := k.cover()
				for d := range tc.dims {
					want := sortedLeafTable(k, d)
					if len(want) == 0 {
						if covered {
							t.Fatalf("%s: dimension %d reads no leaf, but cover reports a chunk", label, d)
						}
						break
					}
					tables++
					if !slices.Equal(k.leaves[d], want) {
						t.Fatalf("%s: dimension %d table\n got %v\nwant %v", label, d, k.leaves[d], want)
					}
					edge := geom.ChunkDims[d]
					for c := 0; c < geom.ChunksPerDim(d); c++ {
						lo, _ := slices.BinarySearchFunc(want, c*edge, func(e leafEntry, o int) int { return cmp.Compare(int(e.ord), o) })
						hi, _ := slices.BinarySearchFunc(want, (c+1)*edge, func(e leafEntry, o int) int { return cmp.Compare(int(e.ord), o) })
						if !slices.Equal(k.chunkRow(d, c), want[lo:hi]) {
							t.Fatalf("%s: dimension %d chunk row %d = %v, want %v", label, d, c, k.chunkRow(d, c), want[lo:hi])
						}
					}
					for o := 0; o < extents[d]; o++ {
						var at []leafEntry
						for _, e := range want {
							if int(e.ord) == o {
								at = append(at, e)
							}
						}
						if got := k.leafEntries(d, o, nil); !slices.Equal(got, at) {
							t.Fatalf("%s: dimension %d leaf %d entries %v, want %v", label, d, o, got, at)
						}
					}
				}
				if !covered {
					continue
				}
				ccoord := make([]int, geom.NumDims())
				for id := 0; id < geom.NumChunks(); id++ {
					geom.CoordOf(id, ccoord)
					want := true
					for d, c := range ccoord {
						want = want && len(k.chunkRow(d, c)) > 0
					}
					if k.covers(id) && !want || !k.covers(id) && want {
						t.Fatalf("%s: chunk %d at %v covered %v, holds a leaf of every table %v", label, id, ccoord, k.covers(id), want)
					}
				}
			}
		}
		if tables < 200 {
			t.Fatalf("%s: %d tables compared; too few to pin anything", tc.name, tables)
		}
	}
}
