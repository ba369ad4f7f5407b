package pebble

import "slices"

// Read accessors by node ID that only the tests use.

// HasEdge reports whether x and y are adjacent.
func (g *Graph) HasEdge(x, y int) bool {
	i, okX := g.Index(x)
	j, okY := g.Index(y)
	if !okX || !okY {
		return false
	}
	_, found := slices.BinarySearch(g.Adjacent(i), int32(j))
	return found
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []int {
	g.index()
	return slices.Clone(g.ids)
}

// Degree returns the number of neighbors of x.
func (g *Graph) Degree(x int) int {
	if i, ok := g.Index(x); ok {
		return len(g.Adjacent(i))
	}
	return 0
}

// Neighbors returns x's neighbors in ascending order.
func (g *Graph) Neighbors(x int) []int {
	i, ok := g.Index(x)
	if !ok {
		return nil
	}
	return g.idsOf(g.Adjacent(i))
}

// cost is costOf by node ID.
func (g *Graph) cost(x int) int {
	i, _ := g.Index(x)
	return int(g.costOf(int32(i)))
}

// idsOf maps dense node numbers back to IDs.
func (g *Graph) idsOf(nodes []int32) []int {
	out := make([]int, len(nodes))
	for k, i := range nodes {
		out[k] = g.ids[i]
	}
	return out
}

// Components returns the connected components, each sorted, ordered by
// smallest member.
func (g *Graph) Components() [][]int {
	state := make([]uint8, g.NumNodes())
	var comps [][]int
	var comp []int32
	for s := range state {
		if state[s] == untouched {
			comp = g.component(int32(s), state, comp)
			slices.Sort(comp)
			comps = append(comps, g.idsOf(comp))
		}
	}
	return comps
}
