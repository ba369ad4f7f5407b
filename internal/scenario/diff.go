package scenario

import (
	"fmt"
	"math"
	"sort"

	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
)

// CellDiff reports one cell whose resolved value differs between two
// scenarios. Cell holds the leaf member paths in schema order; A and B
// are the resolved values (nil = absent) in the respective scenarios.
type CellDiff struct {
	Cell []string `json:"cell"`
	A    *float64 `json:"a"`
	B    *float64 `json:"b"`
}

// Diff computes the cell-by-cell difference between two scenarios over
// the same cube. The candidate set is the union of cells either
// scenario's layers touch — plus every base cell when the scenarios
// are pinned to different base snapshots — so the cost scales with the
// edits, not the cube, in the common shared-base case. Each candidate
// resolves through both layer chains; cells equal (or absent) on both
// sides are dropped. diff(A, A) is therefore always empty. Results
// are in deterministic address order.
func Diff(a, b *Scenario) ([]CellDiff, error) {
	if a.cubeName != b.cubeName {
		return nil, fmt.Errorf("scenario: cannot diff %s (cube %q) against %s (cube %q)", a.id, a.cubeName, b.id, b.cubeName)
	}
	layersA, dimsA, _, _ := a.snapshot()
	layersB, dimsB, _, _ := b.snapshot()
	if len(dimsA) != len(dimsB) {
		return nil, fmt.Errorf("scenario: dimension arity mismatch between %s and %s", a.id, b.id)
	}
	chainA := chunk.NewChain(a.base.Store(), layersA)
	chainB := chunk.NewChain(b.base.Store(), layersB)

	candidates := map[string][]int{}
	collect := func(addr []int, v float64) bool {
		key := cube.EncodeAddr(addr)
		if _, seen := candidates[key]; !seen {
			candidates[key] = append([]int(nil), addr...)
		}
		return true
	}
	for _, layers := range [2][]*chunk.Layer{layersA, layersB} {
		for _, l := range layers {
			l.Values().NonNull(collect)
			l.Deletes().NonNull(collect)
		}
	}
	// Different base snapshots: base cells can differ even where no
	// layer touches them, so widen the candidate set to both bases.
	if !(a.base == b.base || (a.baseVersion != 0 && a.baseVersion == b.baseVersion)) {
		a.base.Store().NonNull(collect)
		b.base.Store().NonNull(collect)
	}

	addrs := make([][]int, 0, len(candidates))
	for _, addr := range candidates {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrLess(addrs[i], addrs[j]) })

	var out []CellDiff
	for _, addr := range addrs {
		va := resolveGuarded(chainA, addr)
		vb := resolveGuarded(chainB, addr)
		if math.IsNaN(va) && math.IsNaN(vb) {
			continue
		}
		if !math.IsNaN(va) && !math.IsNaN(vb) && va == vb {
			continue
		}
		out = append(out, CellDiff{
			Cell: cellPaths(addr, dimsA, dimsB),
			A:    nullable(va),
			B:    nullable(vb),
		})
	}
	return out, nil
}

// resolveGuarded reads addr through the chain, treating addresses
// outside every layer and the base (the other scenario's hypothetical
// member space) as absent. Chain.Get already bounds-checks per layer
// and against a chunk-backed base; a map-backed base accepts any
// address.
func resolveGuarded(c *chunk.Chain, addr []int) float64 {
	return c.Get(addr)
}

// cellPaths renders a cell address as leaf member paths, preferring
// the first scenario's dimensions and falling back to the second's for
// ordinals only it knows (its hypothetical members).
func cellPaths(addr []int, dimsA, dimsB []*dimension.Dimension) []string {
	out := make([]string, len(addr))
	for i, o := range addr {
		switch {
		case o < dimsA[i].NumLeaves():
			out[i] = dimsA[i].Path(dimsA[i].Leaf(o).ID)
		case o < dimsB[i].NumLeaves():
			out[i] = dimsB[i].Path(dimsB[i].Leaf(o).ID)
		default:
			out[i] = fmt.Sprintf("#%d", o)
		}
	}
	return out
}

// addrLess orders addresses lexicographically.
func addrLess(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// nullable boxes a value, mapping NaN (absent) to nil.
func nullable(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}
