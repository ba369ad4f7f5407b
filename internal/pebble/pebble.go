// Package pebble implements the chunk-merge scheduling of the paper
// (§5.2): the merge dependency graph between chunks that hold instances
// of the same varying member, and the pebbling heuristic that orders
// chunk reads so the fewest chunks are simultaneously resident.
//
// Pebbling semantics (paper §5.2): an unbounded supply of pebbles; at
// most one pebble per node; a pebble may be removed from a node iff all
// its neighbors have been pebbled (at some point). The goal is to pebble
// every node while minimizing the peak number of pebbles in play — each
// pebble is a chunk held in memory, removal is "processing the chunk
// away".
package pebble

import (
	"fmt"
	"math/bits"
	"slices"
)

// Graph is an undirected merge-dependency graph over chunk identifiers.
// AddNode and AddEdge only append; the first query after a mutation
// indexes the graph densely — nodes numbered 0..n-1 in ascending ID
// order (so comparing node numbers compares IDs), adjacency in CSR form
// as sorted, duplicate-free node numbers in one int32 slice. Querying
// may therefore write: a Graph is safe for concurrent readers only once
// it has been queried and is no longer mutated.
type Graph struct {
	ids  []int   // node IDs; ascending and distinct once indexed
	ends []int   // edge endpoint IDs, two per AddEdge
	off  []int32 // node i's neighbors are nbr[off[i]:off[i+1]]
	nbr  []int32
	// slots is an open-addressed table from ID to node number plus one
	// (0 marks a free slot): a power of two in size, at most half full.
	slots []int32
	// indexed reports that off, nbr and slots reflect ids and ends.
	indexed bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode ensures a node exists (isolated nodes are legal: chunks with a
// single instance still need reading).
func (g *Graph) AddNode(x int) {
	g.ids = append(g.ids, x)
	g.indexed = false
}

// AddEdge records that chunks x and y must be co-resident to merge,
// adding either as a node if need be. Self-loops are ignored and
// repeated edges count once.
func (g *Graph) AddEdge(x, y int) {
	if x == y {
		return
	}
	g.ends = append(g.ends, x, y)
	g.indexed = false
}

// index builds the dense form. Endpoints that were never AddNode'd are
// discovered on the first pass and numbered on a second.
func (g *Graph) index() {
	if g.indexed {
		return
	}
	g.indexed = true
	ends := make([]int32, len(g.ends))
	for complete := false; !complete; {
		slices.Sort(g.ids)
		g.ids = slices.Compact(g.ids)
		g.slots = make([]int32, 2<<bits.Len(uint(len(g.ids))))
		for i, id := range g.ids {
			g.slots[g.slot(id)] = int32(i) + 1
		}
		complete = true
		for k, id := range g.ends {
			if ends[k] = g.slots[g.slot(id)] - 1; ends[k] < 0 {
				g.ids = append(g.ids, id)
				complete = false
			}
		}
	}
	n := len(g.ids)
	g.off = make([]int32, n+1)
	for _, i := range ends {
		g.off[i+1]++
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	g.nbr = make([]int32, len(ends))
	fill := slices.Clone(g.off[:n])
	for k := 0; k < len(ends); k += 2 {
		a, b := ends[k], ends[k+1]
		g.nbr[fill[a]], g.nbr[fill[b]] = b, a
		fill[a]++
		fill[b]++
	}
	// Sort each list and squeeze repeated edges out in place; the write
	// cursor never overtakes the list being read.
	w := int32(0)
	for i := 0; i < n; i++ {
		list := g.nbr[g.off[i]:g.off[i+1]]
		slices.Sort(list)
		g.off[i] = w
		for k, y := range list {
			if k == 0 || y != list[k-1] {
				g.nbr[w] = y
				w++
			}
		}
	}
	g.off[n] = w
	g.nbr = g.nbr[:w]
}

// slot returns the table slot that holds node x, or the free slot where
// the probe for it ends.
func (g *Graph) slot(x int) int {
	mask := len(g.slots) - 1
	h := int(uint64(x)*0x9e3779b97f4a7c15>>32) & mask
	for g.slots[h] > 0 && g.ids[g.slots[h]-1] != x {
		h = (h + 1) & mask
	}
	return h
}

// Index returns the dense number of node x: its rank among the node IDs.
func (g *Graph) Index(x int) (int, bool) {
	g.index()
	i := int(g.slots[g.slot(x)]) - 1
	return i, i >= 0
}

// Adjacent returns the node numbers of the neighbors of node number i,
// ascending. The slice aliases the graph's index: do not modify it.
func (g *Graph) Adjacent(i int) []int32 {
	g.index()
	return g.adj(int32(i))
}

// adj is Adjacent on a graph known to be indexed.
func (g *Graph) adj(i int32) []int32 { return g.nbr[g.off[i]:g.off[i+1]] }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int {
	g.index()
	return len(g.ids)
}

// NumEdges returns the number of distinct edges.
func (g *Graph) NumEdges() int {
	g.index()
	return len(g.nbr) / 2
}

// component appends to comp[:0] the connected component of the
// untouched node s in breadth-first order, marking its nodes reached.
func (g *Graph) component(s int32, state []uint8, comp []int32) []int32 {
	comp = append(comp[:0], s)
	state[s] = reached
	for head := 0; head < len(comp); head++ {
		for _, y := range g.adj(comp[head]) {
			if state[y] == untouched {
				state[y] = reached
				comp = append(comp, y)
			}
		}
	}
	return comp
}

// costOf is the paper's node cost, by dense node number: cost(x) = min
// over neighbors y of deg(y) − 1, i.e. the fewest other nodes that must
// be pebbled before a pebble on one of x's neighbors can be removed.
// Isolated nodes cost 0.
func (g *Graph) costOf(i int32) int32 {
	best := int32(0)
	for k, y := range g.adj(i) {
		if c := int32(len(g.adj(y))) - 1; k == 0 || c < best {
			best = c
		}
	}
	return best
}

// Schedule is the outcome of a pebbling run.
type Schedule struct {
	// Order is the sequence in which nodes were pebbled — the chunk
	// read order the engine should use.
	Order []int
	// Peak is the maximum number of pebbles simultaneously in play —
	// the number of chunk-sized memory slots the merge needs.
	Peak int
}

// Pebbling state of a node. A reached node is in the component being
// pebbled; a frontier node is unpebbled with a pebbled neighbor — a
// candidate — and is enabling once placing it lets a pebble come off.
const (
	untouched uint8 = iota
	reached
	frontier
	enabling
	pebbled
)

// HeuristicPebble runs the paper's heuristic on each connected component
// (in order of smallest member) and returns the combined schedule, whose
// Peak is the maximum over components (they reuse each other's slots).
//
// The run is incremental: unp[q] counts q's unpebbled neighbors, so a
// held pebble comes off exactly when its counter reaches zero, and the
// candidates live in a min-heap instead of being re-derived each step.
// After a placement nothing held is removable, so placing y enables a
// removal iff unp[y] == 0 or some held neighbor q of y has unp[q] == 1;
// both only ever turn true, and each is noticed where a counter drops.
// A node is pushed on entering the frontier and again on turning
// enabling; entries of nodes pebbled since are skipped on pop. Heap keys
// pack (not enabling, cost, node number), so the smallest is the
// heuristic's pick: enabling first, then lowest cost, then lowest ID.
func HeuristicPebble(g *Graph) Schedule {
	n := g.NumNodes()
	sched := Schedule{Order: make([]int, 0, n)}
	scratch := make([]int32, 3*n)
	unp, cost, comp := scratch[:n], scratch[n:2*n], scratch[2*n:2*n]
	for i := range unp {
		unp[i] = int32(len(g.adj(int32(i))))
		cost[i] = g.costOf(int32(i))
	}
	state := make([]uint8, n)
	heap := make([]uint64, 0, 2*n)
	held := 0

	enable := func(y int32) {
		if state[y] != enabling {
			state[y] = enabling
			heap = heapPush(heap, uint64(cost[y])<<31|uint64(y))
		}
	}
	// release handles a pebbled node whose counter just dropped (or was
	// just placed): with no unpebbled neighbor left its pebble comes
	// off; with one left, placing that neighbor will take it off.
	release := func(q int32) {
		switch unp[q] {
		case 0:
			held--
		case 1:
			for _, y := range g.adj(q) {
				if state[y] != pebbled {
					enable(y)
					return
				}
			}
		}
	}
	place := func(x int32) {
		state[x] = pebbled
		sched.Order = append(sched.Order, g.ids[x])
		held++
		sched.Peak = max(sched.Peak, held)
		for _, q := range g.adj(x) {
			unp[q]--
			if state[q] == pebbled {
				release(q) // pebbled with x unpebbled, so q held a pebble
				continue
			}
			if state[q] == reached {
				state[q] = frontier
				heap = heapPush(heap, 1<<62|uint64(cost[q])<<31|uint64(q))
			}
			if unp[q] == 0 {
				enable(q)
			}
		}
		release(x)
	}

	for s := range state {
		if state[s] != untouched {
			continue
		}
		// Start with the minimum-cost node (ties: smallest ID, matching
		// the paper's "breaking ties arbitrarily" deterministically).
		comp = g.component(int32(s), state, comp)
		start := comp[0]
		for _, x := range comp[1:] {
			if cost[x] < cost[start] || (cost[x] == cost[start] && x < start) {
				start = x
			}
		}
		place(start)
		for len(heap) > 0 {
			var key uint64
			key, heap = heapPop(heap)
			if x := int32(key & (1<<31 - 1)); state[x] != pebbled {
				place(x)
			}
		}
	}
	return sched
}

// heapPush and heapPop maintain a binary min-heap of candidate keys.
func heapPush(h []uint64, key uint64) []uint64 {
	h = append(h, key)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

func heapPop(h []uint64) (uint64, []uint64) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		min := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if h[c] < h[min] {
				min = c
			}
		}
		if min == i {
			return top, h
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// MaxDegreeBound returns max degree + 1, the paper's upper bound on the
// pebbles needed.
func MaxDegreeBound(g *Graph) int {
	m := 0
	for i := 0; i < g.NumNodes(); i++ {
		m = max(m, len(g.adj(int32(i))))
	}
	return m + 1
}

// GroupStats is VerifyGroups' account of one group of nodes: the edges
// inside it and the peak pebble count of the schedule restricted to it.
type GroupStats struct{ Edges, Peak int }

// VerifySchedule checks that a schedule is a legal pebbling of the graph
// (every node pebbled exactly once) and returns the peak it achieves.
func VerifySchedule(g *Graph, order []int) (int, error) {
	peak, _, err := VerifyGroups(g, order, make([]int32, g.NumNodes()), 1)
	return peak, err
}

// VerifyGroups is VerifySchedule over a graph whose nodes are
// partitioned into k groups that no edge crosses: group[i] is the group
// of node number i. Because groups
// share no edge, restricting the schedule to one group pebbles that
// group's subgraph on its own, so one pass yields the overall peak and
// every group's edge count and peak. An edge joining two groups is an
// error, like the schedule faults VerifySchedule reports.
func VerifyGroups(g *Graph, order []int, group []int32, k int) (int, []GroupStats, error) {
	n := g.NumNodes()
	stats := make([]GroupStats, k)
	held := make([]int, k)
	unp := make([]int32, n)
	for i := range unp {
		unp[i] = int32(len(g.adj(int32(i))))
	}
	done := make([]bool, n)
	total, peak := 0, 0
	for _, x := range order {
		i, ok := g.Index(x)
		if !ok {
			return 0, nil, fmt.Errorf("pebble: schedule names unknown node %d", x)
		}
		if done[i] {
			return 0, nil, fmt.Errorf("pebble: node %d pebbled twice", x)
		}
		done[i] = true
		gi := group[i]
		total++
		peak = max(peak, total)
		held[gi]++
		stats[gi].Peak = max(stats[gi].Peak, held[gi])
		for _, q := range g.adj(int32(i)) {
			if group[q] != gi {
				return 0, nil, fmt.Errorf("pebble: edge %d–%d crosses groups", x, g.ids[q])
			}
			if unp[q]--; done[q] {
				stats[gi].Edges++
				if unp[q] == 0 {
					total--
					held[gi]--
				}
			}
		}
		if unp[i] == 0 {
			total--
			held[gi]--
		}
	}
	if len(order) != n {
		return 0, nil, fmt.Errorf("pebble: schedule covers %d of %d nodes", len(order), n)
	}
	return peak, stats, nil
}
