package pebble

import (
	"fmt"
	"math/bits"
)

// The exact pebbling search the heuristic's quality is tested against.

// OptimalPeak computes the minimum possible peak pebble count by
// exhaustive state search. It is exponential and intended for verifying
// the heuristic on small graphs (≤ maxOptimalNodes nodes).
const maxOptimalNodes = 14

// OptimalPeak returns the optimal peak for the graph, or an error when
// the graph is too large for exact search.
func OptimalPeak(g *Graph) (int, error) {
	n := g.NumNodes()
	if n > maxOptimalNodes {
		return 0, fmt.Errorf("pebble: %d nodes exceed exact-search limit %d", n, maxOptimalNodes)
	}
	nbr := make([]uint32, n)
	for i := range nbr {
		for _, y := range g.Adjacent(i) {
			nbr[i] |= 1 << uint(y)
		}
	}
	full := uint32(1)<<uint(n) - 1

	// Search over states (pebbledSet, holdingSet) for the smallest k
	// such that the graph can be pebbled with peak ≤ k.
	type state struct{ p, q uint32 }
	feasible := func(k int) bool {
		start := state{0, 0}
		seen := map[state]bool{start: true}
		stack := []state{start}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			// Remove pebbles greedily: removal is never harmful since
			// it only frees capacity (P never shrinks).
			q := s.q
			for i := range nbr {
				if q&(1<<uint(i)) != 0 && nbr[i]&^s.p == 0 {
					q &^= 1 << uint(i)
				}
			}
			s.q = q
			if s.p == full {
				return true
			}
			if bits.OnesCount32(s.q) >= k {
				continue // no capacity to place; dead end
			}
			for i := range nbr {
				bit := uint32(1) << uint(i)
				if s.p&bit != 0 {
					continue
				}
				ns := state{s.p | bit, s.q | bit}
				if !seen[ns] {
					seen[ns] = true
					stack = append(stack, ns)
				}
			}
		}
		return false
	}
	for k := 1; k <= n; k++ {
		if feasible(k) {
			return k, nil
		}
	}
	return n, nil
}
