package pebble

// The map-based pebbler this package shipped before the dense rewrite,
// kept verbatim (types and functions renamed ref*) as a test-only
// reference implementation: the differential tests require the dense
// pebbler to make the same decisions on every graph.

import (
	"fmt"
	"sort"
)

// refGraph is an undirected merge-dependency graph over chunk identifiers.
type refGraph struct {
	adj map[int]map[int]bool
}

// newRefGraph returns an empty graph.
func newRefGraph() *refGraph {
	return &refGraph{adj: make(map[int]map[int]bool)}
}

// AddNode ensures a node exists (isolated nodes are legal: chunks with a
// single instance still need reading).
func (g *refGraph) AddNode(x int) {
	if g.adj[x] == nil {
		g.adj[x] = make(map[int]bool)
	}
}

// AddEdge records that chunks x and y must be co-resident to merge.
// Self-loops are ignored.
func (g *refGraph) AddEdge(x, y int) {
	if x == y {
		return
	}
	g.AddNode(x)
	g.AddNode(y)
	g.adj[x][y] = true
	g.adj[y][x] = true
}

// HasEdge reports whether x and y are adjacent.
func (g *refGraph) HasEdge(x, y int) bool { return g.adj[x][y] }

// Nodes returns all node IDs in ascending order.
func (g *refGraph) Nodes() []int {
	out := make([]int, 0, len(g.adj))
	for x := range g.adj {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

// NumNodes returns the node count.
func (g *refGraph) NumNodes() int { return len(g.adj) }

// Degree returns the number of neighbors of x.
func (g *refGraph) Degree(x int) int { return len(g.adj[x]) }

// Neighbors returns x's neighbors in ascending order.
func (g *refGraph) Neighbors(x int) []int {
	out := make([]int, 0, len(g.adj[x]))
	for y := range g.adj[x] {
		out = append(out, y)
	}
	sort.Ints(out)
	return out
}

// Components returns the connected components, each sorted, ordered by
// smallest member.
func (g *refGraph) Components() [][]int {
	seen := make(map[int]bool)
	var comps [][]int
	for _, start := range g.Nodes() {
		if seen[start] {
			continue
		}
		var comp []int
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, x)
			for _, y := range g.Neighbors(x) {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// cost is the paper's node cost: cost(x) = min over neighbors y of
// deg(y) − 1, i.e. the fewest other nodes that must be pebbled before a
// pebble on one of x's neighbors can be removed. Isolated nodes cost 0.
func (g *refGraph) cost(x int) int {
	best := -1
	for y := range g.adj[x] {
		c := g.Degree(y) - 1
		if best < 0 || c < best {
			best = c
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// refHeuristicPebble runs the paper's heuristic on each connected component
// and returns the combined schedule. Peak is the maximum over
// components (slots are reused between components).
func refHeuristicPebble(g *refGraph) Schedule {
	var sched Schedule
	for _, comp := range g.Components() {
		s := refPebbleComponent(g, comp)
		sched.Order = append(sched.Order, s.Order...)
		if s.Peak > sched.Peak {
			sched.Peak = s.Peak
		}
	}
	return sched
}

func refPebbleComponent(g *refGraph, comp []int) Schedule {
	inComp := make(map[int]bool, len(comp))
	for _, x := range comp {
		inComp[x] = true
	}
	pebbled := make(map[int]bool) // P: ever pebbled
	holding := make(map[int]bool) // Q: currently holding a pebble
	var order []int
	peak := 0

	canRemove := func(x int) bool {
		for y := range g.adj[x] {
			if !pebbled[y] {
				return false
			}
		}
		return true
	}
	removeAll := func() {
		for {
			removed := false
			for x := range holding {
				if canRemove(x) {
					delete(holding, x)
					removed = true
				}
			}
			if !removed {
				return
			}
		}
	}
	place := func(x int) {
		pebbled[x] = true
		holding[x] = true
		order = append(order, x)
		if len(holding) > peak {
			peak = len(holding)
		}
		removeAll()
	}

	// Start with the minimum-cost node (ties: smallest ID, matching the
	// paper's "breaking ties arbitrarily" deterministically).
	start, bestCost := -1, 0
	for _, x := range comp {
		c := g.cost(x)
		if start < 0 || c < bestCost || (c == bestCost && x < start) {
			start, bestCost = x, c
		}
	}
	place(start)

	for len(order) < len(comp) {
		// Candidates: unpebbled neighbors of P within the component.
		type cand struct {
			node    int
			enables bool // placing it lets some pebble be removed
			cost    int
		}
		var cands []cand
		for x := range pebbled {
			for y := range g.adj[x] {
				if pebbled[y] || !inComp[y] {
					continue
				}
				// Would placing y allow a removal from Q ∪ {y}?
				enables := false
				pebbled[y] = true
				for q := range holding {
					if canRemove(q) {
						enables = true
						break
					}
				}
				if !enables && canRemove(y) {
					enables = true
				}
				delete(pebbled, y)
				cands = append(cands, cand{node: y, enables: enables, cost: g.cost(y)})
			}
		}
		if len(cands) == 0 {
			// The component's remaining nodes are unreachable from P,
			// which cannot happen for a connected component; guard
			// against malformed input by picking the cheapest leftover.
			for _, x := range comp {
				if !pebbled[x] {
					place(x)
					break
				}
			}
			continue
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].enables != cands[j].enables {
				return cands[i].enables
			}
			if cands[i].cost != cands[j].cost {
				return cands[i].cost < cands[j].cost
			}
			return cands[i].node < cands[j].node
		})
		// Deduplicate (a node can be a neighbor of several P nodes).
		seen := make(map[int]bool)
		for _, c := range cands {
			if !seen[c.node] {
				place(c.node)
				break
			}
		}
	}
	return Schedule{Order: order, Peak: peak}
}

// refMaxDegreeBound returns max degree + 1, the paper's upper bound on the
// pebbles needed.
func refMaxDegreeBound(g *refGraph) int {
	m := 0
	for x := range g.adj {
		if d := g.Degree(x); d > m {
			m = d
		}
	}
	return m + 1
}

// refVerifySchedule checks that a schedule is a legal pebbling of the graph
// (every node pebbled exactly once) and returns the actual peak it
// achieves. Used by tests and by the engine as a sanity check.
func refVerifySchedule(g *refGraph, order []int) (int, error) {
	pebbled := make(map[int]bool)
	holding := make(map[int]bool)
	peak := 0
	for _, x := range order {
		if _, ok := g.adj[x]; !ok {
			return 0, fmt.Errorf("pebble: schedule names unknown node %d", x)
		}
		if pebbled[x] {
			return 0, fmt.Errorf("pebble: node %d pebbled twice", x)
		}
		pebbled[x] = true
		holding[x] = true
		if len(holding) > peak {
			peak = len(holding)
		}
		for {
			removed := false
			for q := range holding {
				ok := true
				for y := range g.adj[q] {
					if !pebbled[y] {
						ok = false
						break
					}
				}
				if ok {
					delete(holding, q)
					removed = true
				}
			}
			if !removed {
				break
			}
		}
	}
	if len(pebbled) != g.NumNodes() {
		return 0, fmt.Errorf("pebble: schedule covers %d of %d nodes", len(pebbled), g.NumNodes())
	}
	return peak, nil
}
