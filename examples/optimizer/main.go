// Optimizer: two of the paper's §8 future-work directions, live —
// algebraic what-if plan optimization and workload-aware view
// selection. (The third, perspective-cube compression, is the engine's
// fused scan: a served query folds relocated cells straight into its
// grid and builds no perspective cube.)
//
// Run with: go run ./examples/optimizer
package main

import (
	"fmt"
	"log"

	"whatifolap/internal/algebra"
	"whatifolap/internal/chunk"
	"whatifolap/internal/lattice"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/workload"
)

func main() {
	planOptimization()
	viewSelection()
}

// planOptimization rewrites a what-if operator plan using the algebraic
// identities of the operators (paper §8: "further optimization of
// what-if queries by manipulation of the proposed algebraic operators").
func planOptimization() {
	fmt.Println("== Algebraic plan optimization ==")
	// "Among Joe's rows only, show the world under a static January
	// perspective, then keep just the FTE-classified staff" — written
	// naively, outermost first.
	plan := &algebra.PlanSelect{
		Dim:  "Organization",
		Pred: algebra.MemberIs{Ref: "Joe"},
		Child: &algebra.PlanPerspective{
			Varying: "Organization",
			Sem:     perspective.Static,
			Points:  []int{paperdata.Jan, paperdata.Jan, paperdata.Jul},
			Child: &algebra.PlanSelect{
				Dim:   "Organization",
				Pred:  algebra.Not{X: algebra.MemberIs{Ref: "Sue"}},
				Child: algebra.PlanInput{},
			},
		},
	}
	fmt.Println("naive plan:     ", plan)
	opt, rewrites := algebra.Optimize(plan)
	fmt.Println("optimized plan: ", opt)
	for _, rw := range rewrites {
		fmt.Printf("  applied %-22s %s\n", rw.Rule+":", rw.Detail)
	}
	// Both plans answer identically.
	cin := paperdata.Warehouse()
	a, err := algebra.Execute(plan, cin)
	if err != nil {
		log.Fatal(err)
	}
	b, err := algebra.Execute(opt, cin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("equivalent results: %d vs %d cells\n\n", a.NumCells(), b.NumCells())
}

// viewSelection materializes the most beneficial group-by views of a
// workforce cube under a budget (paper §8: "workload aware view
// selection (a la [7])", the HRU greedy algorithm).
func viewSelection() {
	fmt.Println("== Workload-aware view selection (HRU greedy) ==")
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		log.Fatal(err)
	}
	st := w.Cube.Store().(*chunk.Store)
	g := st.Geometry()
	sizes := lattice.EstimateSizes(g, w.Cube.NumCells())
	full := lattice.Mask(1<<uint(g.NumDims())) - 1
	// The workload mostly asks (Department × Period) and (Department ×
	// Account) style queries.
	freq := map[lattice.Mask]float64{
		lattice.Mask(0b0000011): 10, // Department × Period
		lattice.Mask(0b0000101): 5,  // Department × Account
		lattice.Mask(0b0000001): 3,  // Department
	}
	sel, err := lattice.GreedySelect(sizes, full, 3, freq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lattice of %d views over %d dimensions\n", 1<<uint(g.NumDims()), g.NumDims())
	for i, v := range sel.Views {
		fmt.Printf("  pick %d: view %v (est. %.0f rows), benefit %.0f\n",
			i+1, v, sizes[v], sel.Benefits[i])
	}
	fmt.Printf("weighted workload cost: %.0f -> %.0f (%.1fx better)\n",
		sel.CostBefore, sel.CostAfter, sel.CostBefore/sel.CostAfter)
}
